import copy
import pickle
import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from tpl3 import (CommProduct, DerivationQuery, DimensionMismatch, FamilyInstance,
                  Matrix, TriBracket, Vector, a3_bracket, bracket_eval,
                  build_derivation_system, build_product_system,
                  check_transposed_leibniz,
                  delta_derivations, instantiate_family, kernel_basis,
                  left_multiplication, mat_vec, rref, tp_product_space, vec_mat)
from conftest import A3_PRODUCT_SPACE, rand_rat

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
    assert left_multiplication(CommProduct.zero(3), 2) == Matrix.zeros(3, 3)
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
    import tpl3.derivations as derivations

    def forbidden(*args):
        raise AssertionError("a solver built the dense system")

    b = A3 if name == "A3" else direct_sum(*SOLVED_SPACES[name][0])
    query = DerivationQuery(b)
    monkeypatch.setattr(derivations, "build_product_system", forbidden)
    monkeypatch.setattr(derivations, "build_derivation_system", forbidden)
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
    assert space.system == build_product_system(b)[0]
    assert deriv.system == build_derivation_system(query)


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


@pytest.mark.parametrize("name", ["A3", "A4+ab2", "dense4"])
def test_product_space_eliminates_reduced_derivation_rows(name, monkeypatch):
    import tpl3.derivations as derivations

    n = fresh_bracket(name).dim
    rank = n * n - delta_derivations(DerivationQuery(fresh_bracket(name))).dim
    counts = []
    original = derivations._reduce

    def counting(rows):
        rows = list(rows)
        counts.append(len(rows))
        return original(rows)

    def reduce_counts(solve, b):
        counts.clear()
        result = solve(b)
        return counts[:], result

    derivation = lambda b: delta_derivations(DerivationQuery(b))
    monkeypatch.setattr(derivations, "_reduce", counting)
    # a fresh bracket: the 1/3-derivation rows once, then one reduced copy
    # per left multiplication, instead of n raw copies
    b = fresh_bracket(name)
    full = [comb(n, 3) * n, n * rank]
    assert reduce_counts(tp_product_space, b)[0] == full
    # the same object keeps its reduced rows: no elimination at all
    assert reduce_counts(derivation, b)[0] == []
    # the other order: the derivation rows once, then only the moved copies
    b2 = fresh_bracket(name)
    assert reduce_counts(derivation, b2)[0] == full[:1]
    counts2, space2 = reduce_counts(tp_product_space, b2)
    assert counts2 == full[1:]
    # an equal but distinct bracket, a copy and an unpickled bracket solve again
    for other in (fresh_bracket(name), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert other == b and other is not b
        assert reduce_counts(tp_product_space, other)[0] == full
    monkeypatch.undo()
    space = tp_product_space(b)
    assert (space.dim, space.basis, space.description) == dense_product_space(b)
    assert (space2.dim, space2.basis, space2.description) == dense_product_space(b)


def solved(b: TriBracket, step: str):
    """The product space ("p"), the 1/3-derivation space ("d") or the
    δ = 2 space ("2") of ``b`` as a comparable tuple."""
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
        # each space from its own equal bracket object with an empty memo
        expected = {step: solved(TriBracket(b.dim, b.table), step) for step in "d2p"}
        # both call orders, with the δ = 2 solve in between
        for order in ("d2p", "p2d"):
            x = b if order == "d2p" else TriBracket(b.dim, b.table)
            shown = (hash(x), repr(x))
            assert {step: solved(x, step) for step in order} == expected
            snapshot = copy.deepcopy(x._reduced)
            assert {step: solved(x, step) for step in order[::-1]} == expected
            # the stored rows and pivots are never mutated by later solves
            assert {delta: x._reduced[delta] for delta in snapshot} == snapshot
            assert {F(1, 3), F(2)} <= set(x._reduced)
            assert x == TriBracket(b.dim, b.table) and (hash(x), repr(x)) == shown


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
