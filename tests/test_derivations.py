import copy
import pickle
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from tpl3 import (CommProduct, DerivationQuery, DimensionMismatch,
                  FamilyInstance, Matrix, TriBracket, Vector, a3_bracket, bracket_eval,
                  check_fundamental_identity, check_transposed_leibniz, delta_derivations,
                  instantiate_family, invert, tp_product_space, transport_bracket,
                  transport_product, vec_mat)
from tpl3.algebra import structure_table
from conftest import A3_PRODUCT_SPACE, rand_rat, unimodular
from oracles import (build_derivation_system, build_product_system, kernel_basis,
                     left_multiplication, mat_mul, mat_vec, rref, zeros)

A3 = a3_bracket()


def derivation_shape_ok(m: Matrix) -> bool:
    # solved form: zero off-row entries for e1, corner tied to the trace of
    # the lower block
    return (m.entry(0, 1) == 0 and m.entry(0, 2) == 0
            and 2 * m.entry(0, 0) == m.entry(1, 1) + m.entry(2, 2))


def test_build_system_a3_constraints():
    system = build_derivation_system(DerivationQuery(A3))
    # hand elimination: the kernel is cut out by b12 = b13 = 0 and
    # 2 b11 = b22 + b33; compare as row spaces via double inclusion
    oracle = Matrix.from_rows([
        [2, 0, 0, 0, -1, 0, 0, 0, -1],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
    ])
    key = lambda v: v.entries
    assert sorted(kernel_basis(system), key=key) == sorted(kernel_basis(oracle), key=key)


def test_build_system_zero_bracket():
    system = build_derivation_system(DerivationQuery(TriBracket(3, {})))
    assert all(e == 0 for e in system.entries)


def test_build_system_delta_one():
    system = build_derivation_system(DerivationQuery(A3, F(1)))
    oracle = Matrix.from_rows([
        [0, 0, 0, 0, 1, 0, 0, 0, 1],   # b22 + b33 = 0
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
    ])
    key = lambda v: v.entries
    assert sorted(kernel_basis(system), key=key) == sorted(kernel_basis(oracle), key=key)


def test_delta_derivations_dimensions():
    assert delta_derivations(DerivationQuery(A3)).dim == 6
    assert delta_derivations(DerivationQuery(A3, F(1))).dim == 6
    for n in (1, 2, 3, 4):
        space = delta_derivations(DerivationQuery(TriBracket(n, {}), F(2, 5)))
        assert space.dim == n * n


def test_delta_zero_rejected():
    with pytest.raises(ValueError):
        DerivationQuery(A3, F(0))


def test_derivation_space_solved_shape_and_membership():
    space = delta_derivations(DerivationQuery(A3))
    rng = random.Random(2)
    for m in space.basis:
        assert derivation_shape_ok(m)
    # every shape-conforming matrix is a member, every violator is not
    for _ in range(100):
        b22, b33 = rand_rat(rng), rand_rat(rng)
        member = Matrix.from_rows([
            [(b22 + b33) / 2, 0, 0],
            [rand_rat(rng), b22, rand_rat(rng)],
            [rand_rat(rng), rand_rat(rng), b33],
        ])
        assert space.contains(member)
    for _ in range(100):
        entries = [rand_rat(rng) for _ in range(9)]
        candidate = Matrix(3, 3, entries)
        # force a genuine violation of the solved shape
        if derivation_shape_ok(candidate):
            entries[1] = entries[1] + 1
            candidate = Matrix(3, 3, entries)
        assert not derivation_shape_ok(candidate)
        assert not space.contains(candidate)


def test_derivation_defining_identity_on_basis():
    # each space element satisfies the identity with its own delta, exactly
    for delta in (F(1, 3), F(1), F(-2, 7)):
        space = delta_derivations(DerivationQuery(A3, delta))
        for m in space.basis:
            rows = [m.row(i) for i in range(3)]
            for (i, j, k) in combinations(range(1, 4), 3):
                e = [Vector.unit(3, t) for t in (i, j, k)]
                left = vec_mat(A3.basis_bracket(i, j, k), m)
                right = (bracket_eval(A3, rows[i - 1], e[1], e[2])
                         + bracket_eval(A3, e[0], rows[j - 1], e[2])
                         + bracket_eval(A3, e[0], e[1], rows[k - 1])).scale(delta)
                assert left == right


def test_left_multiplication_examples():
    assert left_multiplication(CommProduct.zero(3), 2) == zeros(3, 3)
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    assert left_multiplication(t1, 2) == Matrix.from_rows(
        [[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    assert left_multiplication(t9, 3) == Matrix.from_rows(
        [[0, 0, 0], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        left_multiplication(t1, 4)


def test_tp_product_space_a3():
    space = A3_PRODUCT_SPACE
    assert space.dim == 9
    assert space.description == (
        ((2, 2), 1), ((2, 2), 2), ((2, 2), 3),
        ((2, 3), 1), ((2, 3), 2), ((2, 3), 3),
        ((3, 3), 1), ((3, 3), 2), ((3, 3), 3))
    half = F(1, 2)
    for p in space.basis:
        a, w = p.basis_product(2, 2)[1], p.basis_product(2, 3)[2]
        r, t = p.basis_product(2, 3)[1], p.basis_product(3, 3)[2]
        assert p.basis_product(1, 1).is_zero()
        assert p.basis_product(1, 2) == Vector([(a + w) * half, 0, 0])
        assert p.basis_product(1, 3) == Vector([(r + t) * half, 0, 0])


def test_tp_product_space_zero_brackets():
    assert tp_product_space(TriBracket(2, {})).dim == 6
    assert tp_product_space(TriBracket(1, {})).dim == 1


def test_span_satisfies_leibniz_and_membership():
    rng = random.Random(8)
    space = A3_PRODUCT_SPACE
    for _ in range(40):
        p = space.combination([rand_rat(rng) for _ in range(9)])
        assert space.contains(p)
        assert check_transposed_leibniz(A3, p).passed
    off = CommProduct(3, {(1, 1): Vector.unit(3, 1)})
    assert not space.contains(off)
    assert not check_transposed_leibniz(A3, off).passed


def test_left_multiplications_equivalence():
    # coupling identity holds exactly when all left multiplications are in
    # the 1/3-derivation space
    rng = random.Random(17)
    deriv = delta_derivations(DerivationQuery(A3))
    space = A3_PRODUCT_SPACE
    for trial in range(100):
        if trial % 2 == 0:
            p = space.combination([rand_rat(rng) for _ in range(9)])
        else:
            table = {}
            for (i, j) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
                vec = Vector([rand_rat(rng) for _ in range(3)])
                if not vec.is_zero():
                    table[(i, j)] = vec
            p = CommProduct(3, table)
        holds = check_transposed_leibniz(A3, p).passed
        all_derivations = all(deriv.contains(left_multiplication(p, i))
                              for i in (1, 2, 3))
        assert holds == all_derivations


# --- solved spaces of direct sums ------------------------------------------------

A3_PART = (3, {(1, 2, 3): {1: 1}})
#: the simple 4-dimensional 3-Lie algebra [e_i,e_j,e_k] = eps_ijkl e_l
A4_PART = (4, {(1, 2, 3): {4: 1}, (1, 2, 4): {3: -1}, (1, 3, 4): {2: 1},
               (2, 3, 4): {1: -1}})


def direct_sum(*parts) -> TriBracket:
    n = sum(d for d, _ in parts)
    table, offset = {}, 0
    for d, part in parts:
        for (i, j, k), comps in part.items():
            vec = [0] * n
            for c, x in comps.items():
                vec[offset + c - 1] = x
            table[(i + offset, j + offset, k + offset)] = Vector(vec)
        offset += d
    return TriBracket(n, table)


def parse_entries(text: str) -> dict:
    """``"12.1=1/2 22.2=1"`` -> {(1, 2, 1): 1/2, (2, 2, 2): 1}; two index
    digits before the dot, or two digits alone for matrix entries."""
    out = {}
    for term in text.split():
        key, value = term.split("=")
        out[tuple(int(ch) for ch in key if ch != ".")] = F(value)
    return out


#: dim, free coordinates and basis of tp_product_space and delta_derivations,
#: recorded before the sparse elimination replaced the dense one
SOLVED_SPACES = {
    "A3+ab2": ((A3_PART, (2, {})), 29, 14,
               "22.1 22.2 22.3 22.4 22.5 23.1 23.2 23.3 23.4 23.5 24.4 24.5 25.4 25.5 "
               "33.1 33.2 33.3 33.4 33.5 34.4 34.5 35.4 35.5 44.4 44.5 45.4 45.5 55.4 55.5",
               ["22.1=1", "12.1=1/2 22.2=1", "22.3=1", "22.4=1", "22.5=1", "23.1=1",
                "13.1=1/2 23.2=1", "12.1=1/2 23.3=1", "23.4=1", "23.5=1", "24.4=1",
                "24.5=1", "25.4=1", "25.5=1", "33.1=1", "33.2=1", "13.1=1/2 33.3=1",
                "33.4=1", "33.5=1", "34.4=1", "34.5=1", "35.4=1", "35.5=1", "44.4=1",
                "44.5=1", "45.4=1", "45.5=1", "55.4=1", "55.5=1"],
               ["21=1", "11=1/2 22=1", "23=1", "24=1", "25=1", "31=1", "32=1",
                "11=1/2 33=1", "34=1", "35=1", "44=1", "45=1", "54=1", "55=1"]),
    "A4+ab1": ((A4_PART, (1, {})), 1, 2, "55.5", ["55.5=1"],
               ["11=1 22=1 33=1 44=1", "55=1"]),
    "A3+A3": ((A3_PART, A3_PART), 18, 12,
              "22.1 22.2 22.3 23.1 23.2 23.3 33.1 33.2 33.3 "
              "55.4 55.5 55.6 56.4 56.5 56.6 66.4 66.5 66.6",
              ["22.1=1", "12.1=1/2 22.2=1", "22.3=1", "23.1=1", "13.1=1/2 23.2=1",
               "12.1=1/2 23.3=1", "33.1=1", "33.2=1", "13.1=1/2 33.3=1", "55.4=1",
               "45.4=1/2 55.5=1", "55.6=1", "56.4=1", "46.4=1/2 56.5=1",
               "45.4=1/2 56.6=1", "66.4=1", "66.5=1", "46.4=1/2 66.6=1"],
              ["21=1", "11=1/2 22=1", "23=1", "31=1", "32=1", "11=1/2 33=1", "54=1",
               "44=1/2 55=1", "56=1", "64=1", "65=1", "44=1/2 66=1"]),
    "A4+ab2": ((A4_PART, (2, {})), 6, 5, "55.5 55.6 56.5 56.6 66.5 66.6",
               ["55.5=1", "55.6=1", "56.5=1", "56.6=1", "66.5=1", "66.6=1"],
               ["11=1 22=1 33=1 44=1", "55=1", "56=1", "65=1", "66=1"]),
}


@pytest.mark.parametrize("name", sorted(SOLVED_SPACES))
def test_solved_spaces_of_direct_sums(name):
    parts, product_dim, derivation_dim, description, products, derivations = \
        SOLVED_SPACES[name]
    b = direct_sum(*parts)
    n = b.dim
    space = tp_product_space(b)
    assert space.dim == product_dim
    assert space.description == tuple(((int(key[0]), int(key[1])), int(key[3]))
                                      for key in description.split())
    expected = []
    for text in products:
        table = {}
        for (i, j, t), value in parse_entries(text).items():
            table.setdefault((i, j), [0] * n)[t - 1] = value
        expected.append(CommProduct(n, {key: Vector(vec) for key, vec in table.items()}))
    assert space.basis == tuple(expected)
    deriv = delta_derivations(DerivationQuery(b))
    assert deriv.dim == derivation_dim
    expected = []
    for text in derivations:
        entries = [0] * (n * n)
        for (r, c), value in parse_entries(text).items():
            entries[(r - 1) * n + c - 1] = value
        expected.append(Matrix(n, n, entries))
    assert deriv.basis == tuple(expected)


def seed3_dense_bracket() -> TriBracket:
    # integer entries in [-2, 2] on all four triples: no nonzero compatible
    # product
    rng = random.Random(3)
    return TriBracket(4, {tr: Vector([rng.randint(-2, 2) for _ in range(4)])
                          for tr in combinations(range(1, 5), 3)})


def test_combination_of_zero_dimensional_space():
    # the only combination is the zero product of dimension 4
    space = tp_product_space(seed3_dense_bracket())
    assert space.dim == 0 and space.basis == () and space.description == ()
    zero = space.combination([])
    assert zero == CommProduct.zero(4)
    assert space.contains(zero)
    with pytest.raises(DimensionMismatch):
        space.combination([1])


def perturbed(p: CommProduct, key: tuple[int, int], t: int) -> CommProduct:
    table = dict(p.table)
    old = table.get(key, Vector.zero(p.dim))
    table[key] = old + Vector.unit(p.dim, t)
    return CommProduct(p.dim, table)


def satisfies_derivation_identity(b: TriBracket, m: Matrix, delta) -> bool:
    n = b.dim
    rows = [m.row(i) for i in range(n)]
    e = [Vector.unit(n, t) for t in range(1, n + 1)]
    for (i, j, k) in combinations(range(n), 3):
        left = vec_mat(b.basis_bracket(i + 1, j + 1, k + 1), m)
        right = (bracket_eval(b, rows[i], e[j], e[k])
                 + bracket_eval(b, e[i], rows[j], e[k])
                 + bracket_eval(b, e[i], e[j], rows[k])).scale(delta)
        if left != right:
            return False
    return True


@pytest.mark.parametrize("name", ["A3", "A4+ab2"])
def test_solvers_build_no_dense_system(name, monkeypatch):
    import tpl3.linalg as linalg

    def forbidden(*args):
        raise AssertionError("a solver built the dense system")

    b = A3 if name == "A3" else direct_sum(*SOLVED_SPACES[name][0])
    query = DerivationQuery(b)
    monkeypatch.setattr(linalg.Matrix, "from_rows", forbidden)
    space = tp_product_space(b)
    deriv = delta_derivations(query)
    # membership needs no dense system either
    n = b.dim
    rng = random.Random(41)
    rejected = 0
    for p in space.basis:
        assert space.contains(p)
        i = rng.randint(1, n)
        q = perturbed(p, (i, rng.randint(i, n)), rng.randint(1, n))
        # membership is exactly the coupling identity
        assert space.contains(q) == check_transposed_leibniz(b, q).passed
        rejected += not space.contains(q)
    for m in deriv.basis:
        assert deriv.contains(m)
        entries = list(m.entries)
        entries[rng.randrange(n * n)] += 1
        q = Matrix(n, n, entries)
        assert deriv.contains(q) == satisfies_derivation_identity(b, q, query.delta)
        rejected += not deriv.contains(q)
    assert rejected >= len(space.basis) // 2
    monkeypatch.undo()


def dense_product_space(b: TriBracket):
    """dim, basis and description of the compatible-product space from one
    elimination of the raw joint system: the kernel of the dense
    ``build_product_system`` reshaped pair by pair, free columns read from
    the pivots of its ``rref``."""
    system, pairs = build_product_system(b)
    n = b.dim
    pivots = rref(system)[1]
    free = [c for c in range(system.cols) if c not in pivots]
    basis = []
    for vec in kernel_basis(system):
        basis.append(CommProduct(n, {
            pair: Vector(vec.entries[idx * n:(idx + 1) * n])
            for idx, pair in enumerate(pairs)}))
    return len(basis), tuple(basis), tuple((pairs[c // n], c % n + 1) for c in free)


def rational_bracket(rng: random.Random, n: int, keep: float,
                     density: float) -> TriBracket:
    """Each triple stored with probability ``keep``, each coefficient of a
    stored triple drawn by ``rand_rat`` with probability ``density`` and
    zero otherwise."""
    return TriBracket(n, {
        tr: Vector([rand_rat(rng) if rng.random() < density else 0 for _ in range(n)])
        for tr in combinations(range(1, n + 1), 3) if rng.random() < keep})


def test_product_space_matches_dense_system_kernel():
    brackets = [TriBracket(n, {}) for n in range(1, 7)]
    brackets += [TriBracket(n, {tr: Vector.unit(n, t)})
                 for n in (3, 4, 5) for tr in combinations(range(1, n + 1), 3)
                 for t in (1, n)]
    brackets += [A3, seed3_dense_bracket()]
    brackets += [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    rng = random.Random(43)
    for trial in range(200):
        # the dense oracle is slow past dimension 4: fewer and sparser
        # brackets there, and a fully dense one only now and then
        n = 6 if trial % 20 == 19 else (1, 2, 3, 3, 3, 4, 4, 4, 5, 5)[trial % 10]
        keep, density = rng.choice(((1, 1), (1, 0.4), (0.5, 0.7), (0.25, 0.5)))
        if n > 4 and trial % 100 not in (19, 38):
            keep = min(keep, 0.25)
        brackets.append(rational_bracket(rng, n, keep, density))
    dims = set()
    for b in brackets:
        space = tp_product_space(b)
        assert (space.dim, space.basis, space.description) == dense_product_space(b)
        dims.add(space.dim)
    # both the empty solution and large spaces occur
    assert 0 in dims and max(dims) >= 20


def fresh_bracket(name: str) -> TriBracket:
    """A new bracket object, with an empty reduction memo, for ``name``."""
    return (a3_bracket() if name == "A3" else seed3_dense_bracket() if name == "dense4"
            else direct_sum(*SOLVED_SPACES[name][0]))


def moved_copies(b: TriBracket) -> tuple[set[int], list[list[int]]]:
    """The killed product columns of ``b`` and the columns of each moved copy
    of a non-singleton reduced 1/3-derivation row, one list per (g, row).

    β_uv sits at column u·n + v of a reduced row and moves, for L_g, to
    component v of the pair (min(g, u), max(g, u)); the killed columns are
    the moved columns of the singleton rows β_uv = 0, for every g."""
    from tpl3.derivations import _reduced_rows

    n = b.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]

    def move(g, c):
        u, v = divmod(c, n)
        return pairs.index((min(g, u + 1), max(g, u + 1))) * n + v

    rows = _reduced_rows(DerivationQuery(b))[0]
    gs = range(1, n + 1)
    killed = {move(g, c) for row in rows if len(row) == 1 for c in row for g in gs}
    copies = [[move(g, c) for c in row] for g in gs for row in rows if len(row) > 1]
    return killed, copies


def derivation_row_supports(b: TriBracket) -> list[set[int]]:
    """The columns of the nonzero entries of each nonzero row (i<j<k, t) of
    the 1/3-derivation system of ``b``, from the ``bracket_eval`` system;
    each such row lies in a triple of which a stored triple holds two
    indices."""
    n = b.dim
    first, second = bracket_eval_systems(b)
    triples = list(combinations(range(1, n + 1), 3))
    live = {pair for key in b.table for pair in combinations(key, 2)}
    supports = []
    for r in range(len(triples) * n):
        cols = {c for c, (x, y) in enumerate(zip((col[r] for col in first),
                                                 (col[r] for col in second)))
                if x != y / 3}
        if cols:
            assert live & set(combinations(triples[r // n], 2))
            supports.append(cols)
    return supports


@pytest.mark.parametrize("name", ["A3", "A4+ab2", "dense4"])
def test_product_space_eliminates_reduced_derivation_rows(name, monkeypatch):
    import tpl3.derivations as derivations
    import tpl3.linalg as linalg

    n = fresh_bracket(name).dim
    # the nonzero 1/3-derivation rows all lie in triples that share two
    # indices with a stored triple; the singletons among them only kill
    # their columns, so the first elimination gets the other rows.  The
    # second gets the moved copies of the non-singleton reduced rows that
    # keep a column off the killed ones
    supports = derivation_row_supports(fresh_bracket(name))
    first = sum(len(cols) > 1 for cols in supports)
    assert (len(supports), first) == {"A3": (3, 1), "A4+ab2": (48, 16), "dense4": (16, 16)}[name]
    killed, copies = moved_copies(fresh_bracket(name))
    kept = [cols for cols in copies if not killed.issuperset(cols)]
    counts = []

    def counting(original):
        def eliminate(rows):
            rows = list(rows)
            counts.append(len(rows))
            return original(rows)
        return eliminate

    def reduce_counts(solve, b):
        counts.clear()
        result = solve(b)
        return counts[:], result

    derivation = lambda b: delta_derivations(DerivationQuery(b))
    # both eliminations tp_product_space calls go through _reduce: the
    # non-singleton raw rows, then the moved copies of the reduced rows
    monkeypatch.setattr(derivations, "_reduce", counting(derivations._reduce))
    # the first is skipped where the mod-p pass proves rank
    # t = n² − 1 − |killed|: dense4's 16 rows touch all 16 columns and
    # reach 15; A3 and A4+ab2 have fewer presolved rows than t
    skipped = name == "dense4"
    assert mod_p_gate(DerivationQuery(fresh_bracket(name)))[2] == skipped
    forward = [] if skipped else [first]
    full = forward + [len(kept)]
    assert full == {"A3": [1, 3], "A4+ab2": [16, 6], "dense4": [6]}[name]
    # a fresh bracket: the non-singleton 1/3-derivation rows once, unless
    # the mod-p pass proves their rank, then the surviving reduced copies,
    # instead of n raw copies of every row
    b = fresh_bracket(name)
    assert reduce_counts(tp_product_space, b)[0] == full
    # the same object keeps its reduced rows: no elimination at all
    assert reduce_counts(derivation, b)[0] == []
    # membership reads those reduced rows too (the identity is a 1/3-derivation)
    counts.clear()
    assert derivation(b).contains(Matrix.identity(n)) and counts == []
    # the other order: the non-singleton derivation rows once (or not at
    # all), then only the moved copies
    b2 = fresh_bracket(name)
    assert reduce_counts(derivation, b2)[0] == forward
    # _reduce makes every moved copy a normal integer row, once
    normalised = []
    integer_row = linalg._integer_row
    recording = lambda row: normalised.append(row) or integer_row(row)
    monkeypatch.setattr(linalg, "_integer_row", recording)
    counts2, space2 = reduce_counts(tp_product_space, b2)
    assert counts2 == [len(kept)] and len(normalised) == len(kept)
    monkeypatch.setattr(linalg, "_integer_row", integer_row)
    # an equal but distinct bracket, a copy and an unpickled bracket solve again
    for other in (fresh_bracket(name), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert other == b and other is not b
        assert reduce_counts(tp_product_space, other)[0] == full
    monkeypatch.undo()
    space = tp_product_space(b)
    assert (space.dim, space.basis, space.description) == dense_product_space(b)
    assert (space2.dim, space2.basis, space2.description) == dense_product_space(b)


def oracle_brackets() -> list[TriBracket]:
    """The brackets of ``test_product_space_matches_dense_system_kernel``."""
    brackets = [TriBracket(n, {}) for n in range(1, 7)]
    brackets += [TriBracket(n, {tr: Vector.unit(n, t)})
                 for n in (3, 4, 5) for tr in combinations(range(1, n + 1), 3)
                 for t in (1, n)]
    brackets += [A3, seed3_dense_bracket()]
    brackets += [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    rng = random.Random(43)
    for trial in range(200):
        n = 6 if trial % 20 == 19 else (1, 2, 3, 3, 3, 4, 4, 4, 5, 5)[trial % 10]
        keep, density = rng.choice(((1, 1), (1, 0.4), (0.5, 0.7), (0.25, 0.5)))
        if n > 4 and trial % 100 not in (19, 38):
            keep = min(keep, 0.25)
        brackets.append(rational_bracket(rng, n, keep, density))
    return brackets


def test_killed_product_columns_are_zero():
    # a singleton reduced row β_uv = 0 holds for every 1/3-derivation, so
    # for every left multiplication: (e_g·e_u)_v = 0 for every g, in every
    # compatible product.  Each killed column is zero in every basis
    # product and never a free coordinate.
    named = {seed3_dense_bracket(), direct_sum(*SOLVED_SPACES["A4+ab1"][0]),
             direct_sum(*SOLVED_SPACES["A4+ab2"][0])}
    hits = lost_later = without_singletons = 0
    lost_lead = []
    for b in oracle_brackets():
        n = b.dim
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        killed, copies = moved_copies(b)
        space = tp_product_space(b)
        for c in killed:
            pair, t = pairs[c // n], c % n
            assert all(p.basis_product(*pair)[t] == 0 for p in space.basis)
            assert (pair, t + 1) not in space.description
            hits += 1
        # the copies that reach the second elimination with fewer columns;
        # one that lost its leading column can start with a negative entry
        shrunk = [cols for cols in copies
                  if not killed.isdisjoint(cols) and not killed.issuperset(cols)]
        lead = sum(cols[0] in killed for cols in shrunk)
        if b in named:
            lost_lead.append(lead)
        lost_later += len(shrunk) - lead
        without_singletons += bool(copies) and not killed
    assert lost_lead == [3, 3, 3]
    assert hits > 5000 and lost_later > 400 and without_singletons > 20


def test_reduced_rows_are_normal_integer_rows():
    # every row _reduce returns is its reduced-echelon row times a positive
    # integer, in _integer_row's normal form (ascending columns, content 1,
    # positive first entry)
    from oracles import oracle_rref
    from test_linalg import random_matrices
    from tpl3.derivations import _reduced_rows
    from tpl3.linalg import _cleared, _integer_row, _reduce

    def is_normal(row):
        return (all(type(v) is int for v in row.values())
                and list(row.items()) == list(_integer_row(row).items()))

    def check(reduced, pivots, m):
        for row, pc in zip(reduced, pivots):
            assert is_normal(row) and next(iter(row)) == pc
            assert not row.keys() & set(pivots) - {pc}
        dense = [[F(row.get(j, 0), row[pc]) for j in range(m.cols)]
                 for row, pc in zip(reduced, pivots)]
        dense += [[0] * m.cols] * (m.rows - len(reduced))
        assert (Matrix.from_rows(dense), pivots) == oracle_rref(m)

    rng = random.Random(97)
    for m in random_matrices(rng):
        check(*_reduce(map(_cleared, m.row_lists())), m)
    brackets = [A3, seed3_dense_bracket()]
    brackets += [rational_bracket(rng, n, keep, density) for n in (1, 2, 3, 4, 5)
                 for keep, density in ((1, 1), (0.7, 0.6), (0.5, 0.4))]
    for b in brackets:
        for delta in (F(2), F(-2, 5), F(1, 3)):
            q = DerivationQuery(b, delta)
            check(*_reduced_rows(q), build_derivation_system(q))


def mod_p_gate(q: DerivationQuery) -> tuple[list[dict[int, int]], int, bool]:
    """The rows that ``_reduced_rows`` hands the mod-p pass for ``q``, the
    target rank t and whether the rows pass the gate.

    The singleton rows kill their columns K, and the other rows R lose
    them; t = n² − [δ = 1/3] − |K|.  The gate asks that R have at least t
    rows and touch every column outside K, which rank t over ℚ implies
    when n ≥ 2; at n = 1, t = 0 at δ = 1/3 and no row touches column 0."""
    from tpl3.derivations import _derivation_rows

    n = q.bracket.dim
    rows = list(_derivation_rows(q))
    killed = {c for row in rows if len(row) == 1 for c in row}
    rest = [{c: e for c, e in row.items() if c not in killed} for row in rows if len(row) > 1]
    target = n * n - (q.delta == F(1, 3)) - len(killed)
    touched = {c for row in rest for c in row}
    return rest, target, len(rest) >= target and len(touched) + len(killed) == n * n


def record_calls(monkeypatch, calls: list, *names: str) -> None:
    """Patch each of ``names`` in ``tpl3.derivations`` to append its name to
    ``calls`` when it returns; ``_rank_mod_p`` appends (name, rank)."""
    import tpl3.derivations as derivations

    def recording(name, original):
        def run(*args):
            result = original(*args)
            calls.append((name, result) if name == "_rank_mod_p" else name)
            return result
        return run

    for name in names:
        monkeypatch.setattr(derivations, name, recording(name, getattr(derivations, name)))


def test_full_rank_reduced_rows_match_full_elimination(monkeypatch):
    # at δ = 1/3 the identity is a 1/3-derivation, so n² − 1 pivots fix the
    # reduced rows.  Full rank passes the gate, and on these brackets the
    # prime loses no rank, so the mod-p pass proves it and the exact
    # elimination does not run; the memo rows must equal those of the full
    # elimination
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce

    calls = []
    record_calls(monkeypatch, calls, "_reduce")
    rng = random.Random(71)
    dense = [TriBracket(n, {tr: Vector([rng.randint(-2, 2) for _ in range(n)])
                            for tr in combinations(range(1, n + 1), 3)})
             for n in (2, 3, 4, 5) for _ in range(4)]
    sums = [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    full_rank = zero = 0
    for b in dense + sums + [seed3_dense_bracket()]:
        q = DerivationQuery(b)
        expected = _reduce(list(_derivation_rows(q)))
        calls.clear()
        assert _reduced_rows(q) == expected
        shortcut = len(expected[1]) == b.dim ** 2 - 1
        assert calls == ([] if shortcut else ["_reduce"])
        full_rank += shortcut
        # the vec(I) rows are written at δ = 1/3 only: at δ = 1 the pass
        # proves full column rank, whose reduced rows are the unit rows, or
        # the exact elimination runs
        q = DerivationQuery(b, F(1))
        expected = _reduce(list(_derivation_rows(q)))
        calls.clear()
        assert _reduced_rows(q) == expected
        full = len(expected[1]) == b.dim ** 2
        assert calls == ([] if full else ["_reduce"])
        zero += full
    # every dense bracket with n = 4 or 5 (dense4 included), no direct sum;
    # four have only the zero 1-derivation
    assert full_rank == 9 and zero == 4
    monkeypatch.undo()


def test_presolved_reduced_rows_match_full_elimination(monkeypatch):
    # the singleton rows β_uv = 0 of the δ-derivation system are taken out
    # as killed columns and only the other rows, without those columns, are
    # eliminated; the memo must equal the elimination of every row, whether
    # columns are killed or not, and also when a row is left with a single
    # column only after the drop.  The mod-p pass gets those rows when they
    # pass its gate, and the exact elimination _reduce unless the mod-p
    # pass proves their rank
    import tpl3.derivations as derivations
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce

    handed = {}

    def handing(fn, original):
        def run(rows, *args):
            handed[fn] = rows = list(rows)
            return original(rows, *args)
        return run

    for fn in ("_reduce", "_rank_mod_p"):
        monkeypatch.setattr(derivations, fn, handing(fn, getattr(derivations, fn)))
    rng = random.Random(89)
    brackets = oracle_brackets()[:40]
    brackets += [rational_bracket(rng, n, keep, density) for n in (3, 4, 5, 6)
                 for keep, density in ((1, 1), (1, 0.4), (0.5, 0.7), (0.25, 0.5))]
    kills = none = later = proven = fallback = 0
    for b in brackets:
        for delta in (F(1, 3), F(1), F(-2, 5), F(2)):
            q = DerivationQuery(TriBracket(b.dim, b.table), delta)
            rows = list(_derivation_rows(q))
            assert all(all(row.values()) for row in rows)
            killed = {c for row in rows if len(row) == 1 for c in row}
            expected = _reduce(rows)
            handed.clear()
            assert _reduced_rows(q) == expected
            # rank t over ℚ passes the gate from n = 2 on, and the prime
            # loses no rank here: exactly then the exact elimination is
            # skipped
            full = len(expected[1]) == b.dim ** 2 - (delta == F(1, 3))
            gate = mod_p_gate(q)[2]
            assert set(handed) == ({"_rank_mod_p"} if full and gate else
                                   {"_rank_mod_p", "_reduce"} if gate else {"_reduce"})
            # each pass gets the other rows, without a killed column
            for given in handed.values():
                assert len(given) == sum(len(row) > 1 for row in rows)
                assert all(killed.isdisjoint(row) for row in given)
            kills += bool(killed)
            none += not killed
            later += any(len(row.keys() - killed) == 1 for row in rows if len(row) > 1)
            proven += full and gate
            fallback += gate and not full
    assert kills > 100 and none > 40 and later > 20
    assert proven > 30 and fallback >= 2
    monkeypatch.undo()


def test_mod_p_shortfall_falls_back_to_the_exact_pass(monkeypatch):
    # with the prime set to 2 the rank mod p falls short of t on rows whose
    # rank over ℚ is t: a shortfall proves nothing, so the exact elimination
    # runs, and the memo still equals the full elimination.  The pass
    # counts the rank of an independent GF(2) elimination, capped at t, on
    # the rows it read before t went out of reach
    import tpl3.linalg as linalg
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce
    from oracles import gf2_rank, stopped_rank

    monkeypatch.setattr(linalg, "_RANK_PRIME", 2)
    calls = []
    record_calls(monkeypatch, calls, "_rank_mod_p", "_reduce")
    rng = random.Random(29)
    brackets = [TriBracket(n, {tr: Vector([rng.randint(-2, 2) for _ in range(n)])
                               for tr in combinations(range(1, n + 1), 3)})
                for n in (4, 5) for _ in range(4)]
    deltas = (F(1, 3), F(1), F(-2, 5), F(2))
    short = {}
    for b in brackets + [seed3_dense_bracket()]:
        for delta in deltas:
            q = DerivationQuery(TriBracket(b.dim, b.table), delta)
            rows, target, gate = mod_p_gate(q)
            expected = _reduce(list(_derivation_rows(q)))
            calls.clear()
            assert _reduced_rows(q) == expected
            full = len(expected[1]) == b.dim ** 2 - (delta == F(1, 3))
            if not gate:
                assert not full and calls == ["_reduce"]
                continue
            rank = stopped_rank([gf2_rank(rows[:k]) for k in range(len(rows) + 1)], target)
            assert calls[0] == ("_rank_mod_p", rank)
            assert calls[1:] == ([] if rank == target else ["_reduce"])
            if rank < target:
                short[delta, full] = short.get((delta, full), 0) + 1
    # shortfalls on rows of rank t over ℚ, at every δ
    assert all(short.get((delta, True), 0) >= 3 for delta in deltas)
    monkeypatch.undo()


#: the dense4 draw of round 3 of the seed-53 spaces bench stream: its 16
#: rows touch every column, so it passes the gate, but its rank over ℚ is 14
RANK_14_DENSE4 = {(1, 2, 3): (1, 0, 1, -1), (1, 2, 4): (1, 0, -1, -1),
                  (1, 3, 4): (1, -1, -1, -2), (2, 3, 4): (0, -1, -2, -1)}


def test_rank_deficient_bracket_in_the_gate_runs_the_exact_pass(monkeypatch):
    # a rank mod p is at most the rank over ℚ, so the pass stops short of
    # t = 15 and the exact elimination runs; the 1/3-derivations are the
    # identity and one more map
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce

    calls = []
    record_calls(monkeypatch, calls, "_rank_mod_p", "_reduce")
    b = TriBracket(4, {tr: Vector(v) for tr, v in RANK_14_DENSE4.items()})
    q = DerivationQuery(b)
    rows, target, gate = mod_p_gate(q)
    assert gate and len(rows) == 16 and target == 15
    reduced, pivots = _reduced_rows(q)
    assert (reduced, pivots) == _reduce(list(_derivation_rows(q))) and len(pivots) == 14
    assert calls == [("_rank_mod_p", 14), "_reduce"]
    space = delta_derivations(q)
    assert space.dim == 2 and space.contains(Matrix.identity(4))
    system = build_derivation_system(q)
    assert all(mat_vec(system, Vector(m.entries)).is_zero() for m in space.basis)
    monkeypatch.undo()


def test_failed_mod_p_pass_stops_reading_rows():
    # the pass stops as soon as the pivots found plus the rows left cannot
    # reach t, so it reads rows up to the second that falls dependent (16
    # rows, t = 15) and no further.  Any 14 of the rank-14 dense4 rows are
    # independent, so on them it reads all 16; with their last two rows
    # replaced by combinations of earlier ones, shuffled, the dependent rows
    # come earlier and the rows after them are never read
    from tpl3.linalg import _rank_mod_p
    from oracles import dense_rank_mod_p

    read = []

    class Counted(dict):
        def items(self):
            read.append(self)
            return super().items()

    b = TriBracket(4, {tr: Vector(v) for tr, v in RANK_14_DENSE4.items()})
    rows, target, _ = mod_p_gate(DerivationQuery(b))
    mixed = rows[:14] + [{c: rows[0].get(c, 0) + rows[1].get(c, 0)
                          for c in rows[0].keys() | rows[1].keys()},
                         {c: 3 * e for c, e in rows[2].items()}]
    rng = random.Random(41)
    unread = []
    for order in [rows] + [rng.sample(mixed, len(mixed)) for _ in range(12)]:
        prefix = [dense_rank_mod_p(order[:k], 16, k) for k in range(len(order) + 1)]
        stop = next(k for k, r in enumerate(prefix) if k - r == 2)
        read.clear()
        assert _rank_mod_p([Counted(row) for row in order], 16, target) == prefix[stop]
        assert len(read) == stop
        unread.append(len(order) - stop)
    assert unread[0] == 0 and sum(unread) > 20


@pytest.mark.parametrize("n", [6, 7])
def test_dense_reduced_rows_match_full_elimination(n, monkeypatch):
    # dense brackets with integer coefficients in [-2, 2] on every triple:
    # the mod-p pass proves rank n² − 1 at δ = 1/3 and n² at the other δ,
    # and the closed-form rows equal those of the full elimination
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce

    rng = random.Random(n)
    table = {tr: Vector([rng.randint(-2, 2) for _ in range(n)])
             for tr in combinations(range(1, n + 1), 3)}
    calls = []
    record_calls(monkeypatch, calls, "_reduce")
    for delta in (F(1, 3), F(1), F(-2, 5), F(2)):
        q = DerivationQuery(TriBracket(n, table), delta)
        expected = _reduce(list(_derivation_rows(q)))
        assert _reduced_rows(q) == expected
        assert len(expected[1]) == n * n - (delta == F(1, 3))
    assert calls == []
    monkeypatch.undo()


def dense_plus_abelian(k: int, m: int) -> TriBracket:
    """dense_k ⊕ ab_m as CI writes it: a seed-7 draw of integer values in
    [-2, 2] on every triple of 1..k, each on the indices 1..k, in dimension
    k + m, so e_{k+1}..e_{k+m} span an abelian ideal."""
    rng = random.Random(7)
    return TriBracket(k + m, {tr: Vector([rng.randint(-2, 2) for _ in range(k)] + [0] * m)
                              for tr in combinations(range(1, k + 1), 3)})


@pytest.mark.parametrize("k, m", [(4, 1), (6, 1), (6, 2)])
def test_dense_plus_abelian_spaces_follow_the_block_lemma(k, m):
    """Lemma: let b = D ⊕ A, where D = span(e_1..e_k) holds every stored
    triple and value and A = span(e_{k+1}..e_{k+m}) is abelian.  Let D be
    perfect ([D,D,D] = D) with zero centre (no d ≠ 0 with [d,D,D] = 0).
    Then φ is a δ-derivation of b exactly when its D→D block is a
    δ-derivation of D, its D→A and A→D blocks are zero and its A→A block
    is any map.  Proof: a bracket with an argument in A is zero.  On
    x, y, z ∈ D the A-part of the identity reads φ_DA[x,y,z] = 0, so
    φ_DA = 0 on [D,D,D] = D, and the D-part states that φ_DD is a
    δ-derivation of D.  On x ∈ A, y, z ∈ D it reads 0 = δ[φ_AD x, y, z],
    so φ_AD x is central, hence 0.  With two arguments in A both sides
    are zero.  Conversely these blocks satisfy every case.

    So when Der_{1/3}(D) is the line through I and Der_{−2/5}(D) = 0, the
    two spaces of b have dimensions m² + 1 and m².  A compatible product
    makes every L_g a 1/3-derivation, so L_g = c_g·I on D and L_g maps
    A into A.  For g ≠ u in D, e_g·e_u = c_g e_u = c_u e_g gives c_g = 0
    (k ≥ 2); for g ∈ D and u ∈ A, e_g·e_u lies in A and e_u·e_g = c_u e_g
    in D, so both are zero.  What is left is any symmetric bilinear map
    A × A → A, and every one is compatible: the product space has
    dimension m·m(m + 1)/2, and its free coordinates are the (e_i·e_j)_t
    with k < i ≤ j and k < t.
    """
    from tpl3 import rank
    from tpl3.derivations import _derivation_rows, _reduced_rows
    from tpl3.linalg import _reduce

    b = dense_plus_abelian(k, m)
    n = k + m
    dense = TriBracket(k, {tr: Vector(v.entries[:k]) for tr, v in b.table.items()})
    # the hypotheses on D: perfect, zero centre, and its two spaces, whose
    # rows the mod-p pass proves
    assert rank(Matrix.from_rows([list(v) for v in dense.table.values()])) == k
    assert rank(Matrix.from_rows([[dense.basis_bracket(i, y, z)[t]
                                   for y, z in combinations(range(1, k + 1), 2)
                                   for t in range(k)] for i in range(1, k + 1)])) == k
    third = delta_derivations(DerivationQuery(dense))
    assert third.basis == (Matrix.identity(k),)
    assert delta_derivations(DerivationQuery(dense, F(-2, 5))).dim == 0
    # the spaces of b, which the mod-p pass cannot prove (their rank is
    # below n² − [δ = 1/3]), so their rows come from the exact exit
    for delta, dim, scalar in ((F(1, 3), m * m + 1, True), (F(-2, 5), m * m, False)):
        q = DerivationQuery(b, delta)
        assert _reduced_rows(q) == _reduce(list(_derivation_rows(q)))
        space = delta_derivations(q)
        assert space.dim == dim
        for beta in space.basis:
            corner = beta.entry(0, 0)
            assert scalar or corner == 0
            assert all(beta.entry(i, j) == (corner if i == j else 0)
                       for i in range(n) for j in range(n) if i < k or j < k)
    products = tp_product_space(b)
    assert products.dim == m * m * (m + 1) // 2
    assert set(products.description) == {((i, j), t) for i in range(k + 1, n + 1)
                                         for j in range(i, n + 1) for t in range(k + 1, n + 1)}
    assert (products.dim, products.basis, products.description) == dense_product_space(b)


def test_solved_space_records_match_public_constructors():
    # the basis matrices and basis products are built with no second pass
    # through rat and no key check; they must be the records the public
    # constructors build from the same entries
    from tpl3.algebra import _product_table

    def rebuilt(record):
        if isinstance(record, Matrix):
            return Matrix(record.rows, record.cols, record.entries)
        return CommProduct(record.dim, {key: Vector(vec.entries)
                                        for key, vec in record.table.items()})

    rng = random.Random(101)
    brackets = [A3, seed3_dense_bracket()]
    brackets += [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    brackets += [rational_bracket(rng, n, 0.5, 0.7) for n in (3, 4, 5) for _ in range(3)]
    records = 0
    for b in brackets:
        space = tp_product_space(TriBracket(b.dim, b.table))
        basis = list(space.basis)
        for delta in (F(1, 3), F(-2, 5)):
            basis += delta_derivations(DerivationQuery(b, delta)).basis
        for record in basis:
            public = rebuilt(record)
            assert record == public and hash(record) == hash(public)
            assert repr(record) == repr(public)
            assert pickle.dumps(record) == pickle.dumps(public)
            entries = (record.entries if isinstance(record, Matrix)
                       else [e for vec in record.table.values() for e in vec.entries])
            assert all(type(e) is F for e in entries)
            if isinstance(record, CommProduct):
                assert list(record.table) == sorted(record.table)
                assert record._table is None and _product_table(record) == _product_table(public)
            records += 1
    assert records > 300


def test_unit_pair_vectors_are_shared():
    # a pair of a basis product that holds a single 1 is the one unit vector
    # of its position, shared by every product of every space of that
    # dimension: 25 of the 29 basis products of A3+ab2 are one such pair,
    # the other four hold one too, and A4+ab1's one product is e5·e5 = e5
    unit = [0, 0, 0, 0, 1]
    by_position: dict[int, list[Vector]] = {}
    unit_products = 0
    for name in ("A3+ab2", "A4+ab1"):
        for p in tp_product_space(direct_sum(*SOLVED_SPACES[name][0])).basis:
            units = [vec for vec in p.table.values() if sorted(vec.entries) == unit]
            for vec in units:
                by_position.setdefault(vec.entries.index(1), []).append(vec)
            unit_products += len(p.table) == len(units) == 1
    assert unit_products == 26 and sorted(by_position) == [0, 1, 2, 3, 4]
    assert sum(map(len, by_position.values())) == 30
    for t, vecs in by_position.items():
        assert all(vec is vecs[0] for vec in vecs) and vecs[0] == Vector.unit(5, t + 1)


def test_solved_spaces_are_basis_covariant():
    # a basis change is an isomorphism: it moves every δ-derivation and
    # every compatible product, so the dimensions agree, each δ-derivation
    # β of b moves to Λ⁻¹·β·Λ in the row convention, a δ-derivation of the
    # image, and each product of b moves into the product space of the image
    rng = random.Random(67)
    brackets = [A3] + [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    brackets += [rational_bracket(rng, n, keep, density) for n in (3, 4, 5)
                 for keep, density in ((1, 1), (1, 0.4), (0.5, 0.7))]
    products = derivations = 0
    for b in brackets:
        phi = unimodular(rng, b.dim)
        inverse = invert(phi.map)
        image = transport_bracket(b, phi)
        for delta in (F(1, 3), F(1), F(-2, 5)):
            space = delta_derivations(DerivationQuery(b, delta))
            moved = delta_derivations(DerivationQuery(image, delta))
            assert moved.dim == space.dim
            for beta in space.basis:
                assert moved.contains(mat_mul(mat_mul(inverse, beta), phi.map))
                derivations += 1
        space, moved = tp_product_space(b), tp_product_space(image)
        assert moved.dim == space.dim
        for p in space.basis:
            assert moved.contains(transport_product(p, phi))
            products += 1
    assert products > 50 and derivations > 150


def solved(b: TriBracket, step: str):
    """The product space ("p"), the 1/3-derivation space ("d"), the δ = 2
    space ("2") or the fundamental-identity report ("f") of ``b`` as a
    comparable value."""
    if step == "f":
        return check_fundamental_identity(b)
    if step == "p":
        space = tp_product_space(b)
        return space.dim, space.basis, space.description
    space = delta_derivations(DerivationQuery(b, F(2) if step == "2" else F(1, 3)))
    return space.dim, space.basis


def test_reduction_memo_leaves_solved_spaces_unchanged():
    rng = random.Random(59)
    brackets = [A3, a3_bracket(), seed3_dense_bracket()]
    brackets += [direct_sum(*SOLVED_SPACES[name][0]) for name in sorted(SOLVED_SPACES)]
    for trial in range(120):
        n = 1 + trial % 6
        keep, density = rng.choice(((1, 1), (1, 0.4), (0.5, 0.7), (0.25, 0.5)))
        brackets.append(rational_bracket(rng, n, keep if n < 6 else 0.25, density))
    for b in brackets:
        # each space from its own equal bracket object with empty memos
        expected = {step: solved(TriBracket(b.dim, b.table), step) for step in "d2pf"}
        table = structure_table(TriBracket(b.dim, b.table))
        # both call orders, with the δ = 2 solve in between
        for order in ("fd2p", "p2df"):
            x = b if order == "fd2p" else TriBracket(b.dim, b.table)
            shown = (hash(x), repr(x))
            assert {step: solved(x, step) for step in order} == expected
            snapshot = copy.deepcopy((x._reduced, x._structure))
            assert {step: solved(x, step) for step in order[::-1]} == expected
            # the stored rows, pivots and structure table are never mutated
            # by later solves, and the table is built once
            assert {delta: x._reduced[delta] for delta in snapshot[0]} == snapshot[0]
            assert x._structure == snapshot[1] == table
            assert structure_table(x) is x._structure
            assert {F(1, 3), F(2)} <= set(x._reduced)
            assert x == TriBracket(b.dim, b.table) and (hash(x), repr(x)) == shown
        # neither memo is copied or pickled
        for other in (copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert other == b and other._structure is None and not other._reduced


def test_product_space_contains_matches_dense_system():
    # contains checks the coupling identity; the rows of the product system
    # state the same identity
    rng = random.Random(47)
    brackets = [A3, seed3_dense_bracket(), direct_sum(*SOLVED_SPACES["A4+ab1"][0])]
    brackets += [rational_bracket(rng, 1 + trial % 4, 0.5, 0.5) for trial in range(60)]
    accepted = rejected = 0
    for b in brackets:
        n = b.dim
        space = tp_product_space(b)
        system, pairs = build_product_system(b)
        candidates = [space.combination([rand_rat(rng) for _ in space.basis])]
        candidates += [perturbed(p, (i, rng.randint(i, n)), rng.randint(1, n))
                       for p in space.basis[:3] for i in (rng.randint(1, n),)]
        candidates.append(CommProduct(n, {pair: Vector([rand_rat(rng) for _ in range(n)])
                                          for pair in pairs if rng.random() < 0.3}))
        for q in candidates:
            coords = Vector([c for pair in pairs for c in q.basis_product(*pair)])
            expected = mat_vec(system, coords).is_zero()
            assert space.contains(q) == expected
            accepted += expected
            rejected += not expected
        with pytest.raises(DimensionMismatch):
            space.contains(CommProduct.zero(n + 1))
    assert accepted >= 40 and rejected >= 40


def bracket_eval_systems(b: TriBracket) -> tuple[list[list], list[list]]:
    """The two halves of the δ-derivation system, from ``bracket_eval`` and
    ``vec_mat`` alone, as columns: column u·n + v of the first holds
    φ[e_i,e_j,e_k] and of the second [φe_i,e_j,e_k] + [e_i,φe_j,e_k] +
    [e_i,e_j,φe_k], over the basis triples i < j < k, for the map φ = E_uv
    with the single entry β_uv = 1.  The system at δ is first − δ·second."""
    n = b.dim
    e = [Vector.unit(n, t) for t in range(1, n + 1)]
    first, second = [], []
    for u in range(n):
        for v in range(n):
            phi = Matrix(n, n, [int((r, c) == (u, v)) for r in range(n) for c in range(n)])
            image = [vec_mat(x, phi) for x in e]
            left, right = [], []
            for (i, j, k) in combinations(range(n), 3):
                left.extend(vec_mat(bracket_eval(b, e[i], e[j], e[k]), phi))
                right.extend(bracket_eval(b, image[i], e[j], e[k])
                             + bracket_eval(b, e[i], image[j], e[k])
                             + bracket_eval(b, e[i], e[j], image[k]))
            first.append(left or [0])
            second.append(right or [0])
    return first, second


def test_delta_derivations_match_bracket_eval_system_on_rational_brackets():
    # the solver's rows are integer multiples of the rational rows (the
    # bracket over its common denominator D, δ = p/q); this system is built
    # from bracket_eval alone, so a wrong D, p or q changes a dimension or
    # a basis matrix
    from test_linalg import oracle_rref

    rng = random.Random(83)
    brackets = [rational_bracket(rng, n, keep, density) for n in (1, 2, 3, 4, 5)
                for keep, density in ((1, 1), (0.7, 0.6), (0.5, 0.4))]
    # sparse brackets, where _derivation_rows skips the triples without a
    # live pair; this system reads every triple, so a skip that drops a
    # triple with a live pair changes a dimension.  A lone stored triple
    # with a gap, such as (1, 2, 4), makes (1, 3, 4) such a triple: only
    # its pair (1, 4) is live, and its rows alone force β_32 = 0
    brackets += [TriBracket(4, {tr: Vector([F(1, 2), 0, 0, F(-2, 3)])})
                 for tr in combinations(range(1, 5), 3)]
    brackets += [rational_bracket(rng, n, keep, 0.3)
                 for n, keep in ((4, 0.25), (4, 0.3), (4, 0.35), (5, 0.25), (5, 0.3),
                                 (5, 0.35), (6, 0.3))]
    denominators = {x.denominator for b in brackets for v in b.table.values() for x in v}
    assert {2, 3, 4} <= denominators
    for b in brackets:
        n = b.dim
        first, second = bracket_eval_systems(b)
        for delta in (F(1, 3), F(1), F(2), F(-2, 5), F(-2, 7)):
            space = delta_derivations(DerivationQuery(b, delta))
            assert all(satisfies_derivation_identity(b, m, delta) for m in space.basis)
            system = Matrix.from_rows([[x - delta * y for x, y in zip(*cells)]
                                       for cells in zip(zip(*first), zip(*second))])
            assert space.dim == n * n - len(oracle_rref(system)[1])
            if space.basis:
                flat = Matrix.from_rows([list(m.entries) for m in space.basis])
                assert len(oracle_rref(flat)[1]) == space.dim
