import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpl3 import (DimensionMismatch, Matrix, Singular, Vector, invert, parse_rat, rank,
                  rational_root, vec_mat)
from tpl3.linalg import _cleared, _densify, _integer_root, _kernel, _rank_mod_p, _reduce
from oracles import (Infeasible, dense_rank_mod_p, determinant, gf2_rank, kernel_basis,
                     mat_mul, mat_vec, oracle_kernel, oracle_rref, oracle_solve_affine,
                     stopped_rank, zeros)

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def square(entries, n):
    return Matrix(n, n, entries)


def test_mat_mul_identity():
    # the matrix product of the oracles, which the tests multiply maps by
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_mul(Matrix.identity(3), m) == m
    assert mat_mul(m, Matrix.identity(3)) == m


def test_mat_mul_inverse_block():
    # lower block of the case 1-a canonical automorphism times its inverse
    a = Matrix.from_rows([[F(-1, 2), F(1, 2)], [F(-3, 2), F(-1, 2)]])
    b = Matrix.from_rows([[F(-1, 2), F(-1, 2)], [F(3, 2), F(-1, 2)]])
    assert mat_mul(a, b) == Matrix.identity(2)


def test_mat_mul_nilpotent():
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert mat_mul(n, n) == zeros(2, 2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(zeros(2, 3), zeros(2, 3))


def test_determinant_examples():
    assert determinant(Matrix.from_rows([[-2, -3], [1, 1]])) == 1
    assert determinant(Matrix.identity(4)) == 1
    assert determinant(Matrix.from_rows([[2, 0], [0, 3]])) == 6
    with pytest.raises(DimensionMismatch):
        determinant(zeros(2, 3))


def test_invert_examples():
    assert invert(Matrix.identity(3)) == Matrix.identity(3)
    a = Matrix.from_rows([[F(-1, 2), F(1, 2)], [F(-3, 2), F(-1, 2)]])
    inv = invert(a)
    assert inv == Matrix.from_rows([[F(-1, 2), F(-1, 2)], [F(3, 2), F(-1, 2)]])
    assert mat_mul(inv, a) == Matrix.identity(2)
    with pytest.raises(Singular):
        invert(Matrix.from_rows([[1, 1], [1, 1]]))


def test_kernel_examples():
    assert kernel_basis(zeros(2, 2)) == [Vector([1, 0]), Vector([0, 1])]
    assert kernel_basis(Matrix.from_rows([[1, 1], [0, 0]])) == [Vector([-1, 1])]
    assert kernel_basis(Matrix.identity(3)) == []


def test_solve_affine_examples():
    # the dense affine solve of the oracles, which the witness-solve
    # references use
    part, kern = oracle_solve_affine(Matrix.identity(2), Vector([3, 4]))
    assert part == Vector([3, 4]) and kern == []
    part, kern = oracle_solve_affine(Matrix.from_rows([[1, 1]]), Vector([2]))
    assert part == Vector([2, 0]) and kern == [Vector([-1, 1])]
    with pytest.raises(Infeasible):
        oracle_solve_affine(Matrix.from_rows([[1, 0], [1, 0]]), Vector([1, 2]))


def test_parse_rat():
    assert parse_rat("6/8") == F(3, 4)
    assert parse_rat("-3") == -3
    assert str(parse_rat("-6/8")) == "-3/4"
    with pytest.raises(ValueError):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat("x")


def test_parse_rat_grammar():
    # optional surrounding whitespace, optional sign, ASCII digits and an
    # optional /digits; the same on every Python version
    accepted = {"6/8": F(3, 4), "-3": F(-3), " 3 ": F(3), "+2": F(2), "-0": F(0)}
    for text, value in accepted.items():
        assert parse_rat(text) == value
    for text in ("0.5", ".5", "5.", "1e3", "1E3", "1e2000000", "1_000", "1/2_0",
                 "1 /2", "\u0661\u0662", "", "/2", "1/", "--1"):
        with pytest.raises(ValueError, match="bad rational"):
            parse_rat(text)
    # a zero denominator is named as such
    for text in ("1/0", " -3/00 "):
        with pytest.raises(ValueError, match=r"^bad rational '.*': zero denominator$"):
            parse_rat(text)


def test_rational_root():
    assert rational_root(F(1, 16), 4) == F(1, 2)
    assert rational_root(F(9, 4), 2) == F(3, 2)
    assert rational_root(F(9, 4), 4) is None
    assert rational_root(F(1, 2), 4) is None
    assert rational_root(F(-4), 2) is None
    assert rational_root(F(0), 2) == 0


@pytest.mark.parametrize("degree", [3, 6])
def test_rational_root_takes_only_degrees_2_and_4(degree):
    for q in (F(8), F(64), F(0), F(-1)):
        with pytest.raises(ValueError, match="degree 2 or 4"):
            rational_root(q, degree)


@settings(max_examples=60)
@given(st.lists(small_rats, min_size=9, max_size=9))
def test_invert_roundtrip(entries):
    m = square(entries, 3)
    if determinant(m) == 0:
        return
    inv = invert(m)
    assert mat_mul(inv, m) == Matrix.identity(3)
    assert mat_mul(m, inv) == Matrix.identity(3)


@settings(max_examples=60)
@given(st.lists(small_rats, min_size=12, max_size=12))
def test_kernel_annihilates_and_rank_nullity(entries):
    m = Matrix(3, 4, entries)
    kern = kernel_basis(m)
    for v in kern:
        assert mat_vec(m, v).is_zero()
    assert rank(m) + len(kern) == m.cols
    if kern:
        stacked = Matrix.from_rows([list(v) for v in kern])
        assert rank(stacked) == len(kern)


@settings(max_examples=40)
@given(st.lists(small_rats, min_size=16, max_size=16),
       st.lists(small_rats, min_size=16, max_size=16))
def test_determinant_multiplicative(e1, e2):
    a, b = square(e1, 4), square(e2, 4)
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


@settings(max_examples=60)
@given(st.lists(small_rats, min_size=12, max_size=12),
       st.lists(small_rats, min_size=3, max_size=3))
def test_solve_affine_solves(entries, rhs):
    m = Matrix(3, 4, entries)
    b = Vector(rhs)
    try:
        part, kern = oracle_solve_affine(m, b)
    except Infeasible:
        return
    assert mat_vec(m, part) == b
    rng = random.Random(0)
    combo = part
    for v in kern:
        combo = combo + v.scale(F(rng.randint(-3, 3)))
    assert mat_vec(m, combo) == b


def test_vec_mat_row_convention():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert vec_mat(Vector([1, 0]), m) == Vector([1, 2])
    assert mat_vec(m, Vector([1, 0])) == Vector([1, 3])


def test_reduced_rationals_invariant():
    v = Vector(["2/4", "-10/5"])
    assert v[0].numerator == 1 and v[0].denominator == 2
    assert v[1].numerator == -2 and v[1].denominator == 1


def test_rational_root_exact_for_big_radicands():
    big = 10 ** 20 + 7
    assert rational_root(F(big ** 2), 2) == big
    assert rational_root(F(big ** 4, 3 ** 4), 4) == F(big, 3)
    assert rational_root(F(10 ** 400), 2) == 10 ** 200
    assert rational_root(F(10 ** 400), 4) == 10 ** 100
    assert rational_root(F(1, 10 ** 400), 4) == F(1, 10 ** 100)
    assert rational_root(F(10 ** 309 + 1), 2) is None
    assert rational_root(F(3 * 10 ** 400), 4) is None


def test_rational_root_near_miss_non_squares():
    for root in (2, 3, 10 ** 8 + 1, 10 ** 20 + 7, 10 ** 160 + 3):
        for degree in (2, 4):
            k = root ** degree
            assert rational_root(F(k), degree) == root
            assert rational_root(F(k - 1), degree) is None
            assert rational_root(F(k + 1), degree) is None
            assert rational_root(F(k, k + 1), degree) is None


def bisected_root(q: F, degree: int):
    """``rational_root`` by bisection alone: ``_integer_root`` on z**degree − k
    for the numerator and the denominator of q."""
    if q <= 0:
        return F(0) if q == 0 else None
    roots = [_integer_root(lambda z: z ** degree - k, 0, 1 << -(-k.bit_length() // degree))
             for k in (q.numerator, q.denominator)]
    return None if None in roots else F(*roots)


def test_rational_root_isqrt_matches_bisection():
    rng = random.Random("rational-root-isqrt")
    radicands = [F(0), F(-1), F(1), F(-16, 81)]
    for _ in range(60):
        k = rng.randint(1, 10 ** 80)
        radicands += [F(k), F(k, k + 1), F(k + 1, k), F(-k)]
        for degree in (2, 4):
            power = rng.randint(1, 10 ** (80 // degree)) ** degree
            radicands += [F(power + d) for d in (-1, 0, 1) if power + d]
            radicands += [F(power, power + 1), F(power + 1, power),
                          F(power, rng.randint(1, 10 ** 20) ** degree)]
    found = Counter()
    for q in radicands:
        for degree in (2, 4):
            got = rational_root(q, degree)
            assert got == bisected_root(q, degree), (q, degree)
            assert got is None or type(got) is F and got ** degree == q
            found[degree, got is not None] += 1
    assert min(found.values()) > 50, found


def counted(f):
    # f with a count of its evaluations in ``calls[0]``
    calls = [0]

    def wrapped(z):
        calls[0] += 1
        return f(z)
    return wrapped, calls


def checked_integer_root(f, lo, hi):
    # ``_integer_root`` on a bracket with f(lo) < 0 <= f(hi), against a
    # brute-force scan of (lo, hi], within its evaluation bound
    g, calls = counted(f)
    got = _integer_root(g, lo, hi)
    assert calls[0] <= math.ceil(math.log2(hi - lo)) + 1
    roots = [z for z in range(lo + 1, hi + 1) if f(z) == 0]
    assert (got is None) == (not roots)
    assert got is None or got in roots
    return got


def test_integer_root_matches_brute_force_on_powers():
    for n in (1, 2, 3, 4, 5):
        for k in range(1, 700):
            hi = 1 << -(-k.bit_length() // n)
            got = checked_integer_root(lambda z: z ** n - k, 0, hi)
            assert got == next((z for z in range(1, hi + 1) if z ** n == k), None)


def test_integer_root_matches_brute_force_on_monic_cubics():
    rng = random.Random(15)
    found = 0
    for trial in range(400):
        if trial % 2:   # split: three distinct integer roots
            r1, r2, r3 = rng.sample(range(-25, 26), 3)
            coeffs = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
        else:           # Shanks' cubic z³ − a·z² − (a+3)·z − 1 moved by z ↦ z + t
            a, t = rng.randint(-8, 8), rng.randint(-20, 20)
            coeffs = (3 * t - a, 3 * t * t - 2 * a * t - a - 3,
                      t ** 3 - a * t * t - (a + 3) * t - 1)

        def f(z, c=coeffs):
            return ((z + c[0]) * z + c[1]) * z + c[2]

        # every bracket (lo, hi] over a small range with f(lo) < 0 <= f(hi)
        for lo in range(-40, 40, 3):
            for hi in range(lo + 1, 41, 5):
                if f(lo) < 0 <= f(hi):
                    found += checked_integer_root(f, lo, hi) is not None
    assert found > 1000


# --- the seed's dense inverse, kept as the reference oracle -----------------------

def oracle_invert(m):
    n = m.rows
    work = [row + [F(int(j == i)) for j in range(n)] for i, row in enumerate(m.row_lists())]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise Singular("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    return Matrix.from_rows([row[n:] for row in work])


def random_entry(rng, digits):
    if rng.random() < 0.4:
        return F(0)
    bound = 10 ** digits
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrices(rng):
    """Seeded matrices of every shape the elimination must handle."""
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        digits = rng.choice((1, 1, 2, 20))
        yield Matrix(rows, cols, [random_entry(rng, digits) for _ in range(rows * cols)])
    for rows, cols in ((9, 3), (3, 9), (1, 1), (6, 6)):  # tall, wide, tiny, square
        yield Matrix(rows, cols, [random_entry(rng, 1) for _ in range(rows * cols)])
        yield zeros(rows, cols)
    for _ in range(10):
        # rank-deficient: a product through a thin middle dimension, with
        # duplicated and scaled rows appended
        rows, cols, inner = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
        a = Matrix(rows, inner, [random_entry(rng, 2) for _ in range(rows * inner)])
        b = Matrix(inner, cols, [random_entry(rng, 2) for _ in range(inner * cols)])
        prod = mat_mul(a, b).row_lists()
        extra = [prod[0], [F(-3, 7) * e for e in prod[-1]]]
        yield Matrix.from_rows(prod + extra)
    for _ in range(6):
        n = rng.randint(2, 5)
        yield Matrix(n, n, [F(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 20))
                            for _ in range(n * n)])


def test_elimination_matches_dense_oracle():
    rng = random.Random(31)
    outcomes = {"singular": 0, "invertible": 0, "deficient": 0}
    for m in random_matrices(rng):
        reduced, pivots = _reduce(map(_cleared, m.row_lists()))
        dense = [[F(e, row[pc]) for e in _densify(row, m.cols)]
                 for row, pc in zip(reduced, pivots)]
        dense += [[0] * m.cols] * (m.rows - len(reduced))
        assert (Matrix.from_rows(dense), pivots) == oracle_rref(m)
        assert rank(m) == len(pivots)
        outcomes["deficient"] += len(pivots) < min(m.rows, m.cols)
        kernel = [Vector(_densify(v, m.cols)) for v in _kernel(reduced, pivots, m.cols)]
        assert kernel == oracle_kernel(m)
        if m.is_square():
            try:
                expected = oracle_invert(m)
            except Singular:
                outcomes["singular"] += 1
                with pytest.raises(Singular):
                    invert(m)
            else:
                outcomes["invertible"] += 1
                assert invert(m) == expected
    # the seeded draw reaches every branch compared above
    assert min(outcomes.values()) > 0, outcomes


def test_rank_mod_p_counts_up_to_its_target(monkeypatch):
    # a rank mod p is at most the rank over ℚ, and equal on these seeded
    # matrices at the module's prime; the pass returns its target exactly
    # when the rank reaches it, and else the rank of the rows it read
    # before the target went out of reach.  With the prime set to 2 it
    # counts the rank of an independent GF(2) elimination
    import tpl3.linalg as linalg

    lost = stopped = 0
    for p in (linalg._RANK_PRIME, 2):
        monkeypatch.setattr(linalg, "_RANK_PRIME", p)
        for m in random_matrices(random.Random(113)):
            rows = [_cleared(row) for row in m.row_lists()]
            prefix = [gf2_rank(rows[:k]) if p == 2 else len(_reduce(rows[:k])[1])
                      for k in range(m.rows + 1)]
            r = prefix[-1]
            counts = [_rank_mod_p(rows, m.cols, t) for t in range(m.rows + 2)]
            assert counts[:r + 1] == list(range(r + 1))
            assert counts == [stopped_rank(prefix, t) for t in range(m.rows + 2)]
            lost += r < rank(m)
            stopped += counts[r + 1] < r
    assert lost > 5 and stopped > 5


def seeded_integer_rows(rng, ncols: int, prime: int) -> list[dict[int, int]]:
    """Sparse integer rows on ``ncols`` columns: short and dense rows with
    small entries, entries at or above the prime (multiples of it
    included) and ±10³⁰, zero rows, repeated rows and sums of two earlier
    rows."""
    def entry():
        return rng.choice((rng.choice((-3, -2, -1, 1, 2, 3)),
                           prime * rng.randint(1, 3) + rng.randint(0, 2),
                           rng.choice((-1, 1)) * 10 ** 30 + rng.randint(-5, 5)))

    rows: list[dict[int, int]] = []
    for _ in range(rng.randint(1, min(14, ncols + 4))):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append({c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()})
        else:
            width = ncols if kind > 0.9 else rng.randint(1, min(ncols, 6))
            rows.append({c: entry() for c in rng.sample(range(ncols), width)})
    return rows


@pytest.mark.parametrize("prime", [None, 2, 3])
def test_packed_rank_mod_p_matches_the_dense_pass(prime, monkeypatch):
    # the packed pass against the dense-list pass of the oracles, on rows
    # of 1 to 1024 columns, at the module's prime and at 2 and 3, for every
    # target from 0 to past the number of rows: equal up to the rank, and
    # past it the rank of the prefix read before the target went out of
    # reach
    import tpl3.linalg as linalg

    if prime is not None:
        monkeypatch.setattr(linalg, "_RANK_PRIME", prime)
    p = linalg._RANK_PRIME
    rng = random.Random(127)
    short = stopped = 0
    for ncols in (1, 2, 3, 5, 8, 15, 16, 17, 64, 100, 257, 1024):
        for _ in range(4):
            rows = seeded_integer_rows(rng, ncols, p)
            prefix = [dense_rank_mod_p(rows[:k], ncols, k) for k in range(len(rows) + 1)]
            r = prefix[-1]
            for t in range(len(rows) + 2):
                count = _rank_mod_p(rows, ncols, t)
                assert count == stopped_rank(prefix, t)
                if t <= r:
                    assert count == dense_rank_mod_p(rows, ncols, t) == t
                short += t > r
                stopped += count < min(r, t)
    assert short > 50 and stopped > 20
