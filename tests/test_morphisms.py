import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest

from tpl3 import (ALL_CASES, CANONICAL_AUTOMORPHISM, CASE_FAMILY, AutoMatrix,
                  CommProduct, FamilyInstance, Matrix, NotAutomorphism,
                  ShapeMismatch, Singular, TriBracket, Vector, a3_bracket,
                  a3_automorphism_check, bracket_eval, check_transposed_leibniz,
                  draw_family_params, eleven_equation_residuals, instantiate_family,
                  is_bracket_automorphism, transport_bracket, transport_product,
                  vec_mat)
from conftest import (A3_PRODUCT_SPACE, rand_a3_automorphism, rand_family_product,
                      rand_invertible, rand_rat)
from oracles import kernel_basis, mat_mul, oracle_rref, product_eval
from test_linalg import oracle_invert

A3 = a3_bracket()
PHI_1A = CANONICAL_AUTOMORPHISM["1-a"]
PHI_13 = CANONICAL_AUTOMORPHISM["4-a"]


def test_automatrix_requires_invertible():
    with pytest.raises(Singular, match="automorphism matrices must be invertible"):
        AutoMatrix.from_rows([[1, 1], [1, 1]])


def test_automatrix_eliminates_its_witness_once(monkeypatch):
    import tpl3.elimination as elimination

    counts = []
    original = elimination._reduce

    def counting(rows):
        rows = list(rows)
        counts.append(len(rows))
        return original(rows)

    monkeypatch.setattr(elimination, "_reduce", counting)
    # det B = 2: outside the automorphism shape, so construction eliminates
    m = AutoMatrix.from_rows([[2, 0, 0], [1, 1, 3], [-1, 0, 2]])
    assert counts == [3]
    # no inverse is kept: each transport eliminates once more
    p = instantiate_family(FamilyInstance.make("T2", alpha=1, theta=2))
    moved = transport_product(p, m)
    assert counts == [3, 3]
    transport_bracket(A3, m)
    transport_product(moved, m)
    assert counts == [3] * 4
    # an automorphism is invertible by its shape, so construction eliminates
    # nothing; its transports eliminate once each
    automorphism = AutoMatrix.from_rows([[2, 0, 0], [1, 1, 3], [-1, 0, 1]])
    assert counts == [3] * 4
    transport_product(p, automorphism)
    transport_bracket(A3, automorphism)
    assert counts == [3] * 6
    monkeypatch.undo()
    assert transport_product(moved, m.inverse()) == p


def test_is_bracket_automorphism_examples():
    assert is_bracket_automorphism(A3, PHI_1A).passed
    assert is_bracket_automorphism(A3, AutoMatrix.identity(3)).passed
    broken = AutoMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    report = is_bracket_automorphism(A3, broken)
    assert not report.passed
    assert report.violations[0].witness == (1, 2, 3)


def test_a3_automorphism_check_examples():
    assert a3_automorphism_check(PHI_13)
    assert a3_automorphism_check(AutoMatrix.from_rows([[7, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not a3_automorphism_check(AutoMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))


def fraction_a3_shape(m: Matrix) -> bool:
    """The automorphism-shape test in ``Fraction`` arithmetic."""
    u, l12, l13, _, b11, b12, _, b21, b22 = m.entries
    return l12 == 0 and l13 == 0 and u != 0 and b11 * b22 - b12 * b21 == 1


def test_integer_a3_shape_matches_the_fraction_formula():
    # det B = 1 decided on numerators and denominators: exactly 1, 1 ± 1/N
    # for N up to 10¹², a zero corner, and a nonzero Λ12 or Λ13, over
    # denominators up to 10⁶
    from tpl3.morphisms import _is_a3_shape

    rng = random.Random(97)

    def entry(nonzero=False):
        while True:
            value = F(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 12, 10 ** 6)))
            if value or not nonzero:
                return value

    kinds = ("det 1", "det 1 + 1/N", "det 1 - 1/N", "zero corner", "Λ12 or Λ13")
    for trial in range(1500):
        kind = kinds[trial % 5]
        b11, b12, b21 = entry(nonzero=True), entry(), entry()
        det = {"det 1 + 1/N": 1 + F(1, rng.randint(1, 10 ** 12)),
               "det 1 - 1/N": 1 - F(1, rng.randint(2, 10 ** 12))}.get(kind, F(1))
        b22 = (det + b12 * b21) / b11
        top = [entry(nonzero=True), F(0), F(0)]
        if kind == "zero corner":
            top[0] = F(0)
        elif kind == "Λ12 or Λ13":
            top[rng.choice((1, 2))] = entry(nonzero=True)
        m = Matrix.from_rows([top, [entry(), b11, b12], [entry(), b21, b22]])
        assert _is_a3_shape(m) == fraction_a3_shape(m) == (kind == "det 1"), (kind, m)


def test_check_agreement_with_bracket_automorphism():
    # closed-form check agrees with the structure-constant check on random
    # invertible maps and on all sixteen canonical automorphisms
    rng = random.Random(23)
    count_true = 0
    for _ in range(1000):
        m = rand_invertible(rng, 3)
        assert a3_automorphism_check(m) == is_bracket_automorphism(A3, m).passed
    for _ in range(50):
        m = rand_a3_automorphism(rng)
        assert a3_automorphism_check(m)
        assert is_bracket_automorphism(A3, m).passed
        count_true += 1
    for case in ALL_CASES:
        phi = CANONICAL_AUTOMORPHISM[str(case)]
        assert a3_automorphism_check(phi)
        assert is_bracket_automorphism(A3, phi).passed
    assert count_true == 50


def test_transport_product_identity_and_fixed_point():
    rng = random.Random(4)
    p = rand_family_product(rng)
    assert transport_product(p, AutoMatrix.identity(3)) == p
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=rand_rat(rng, nonzero=True)))
    assert transport_product(t1, PHI_1A) == t1


def test_transport_product_scaling_example():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    d = AutoMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, F(1, 2)]])
    moved = transport_product(t1, d)
    expected = CommProduct(3, {
        (2, 2): Vector([0, F(1, 2), 0]),
        (2, 3): Vector([0, 0, F(-1, 2)]),
        (3, 3): Vector([0, -24, 0]),
    })
    assert moved == expected


def test_transport_bracket_examples():
    phi5 = CANONICAL_AUTOMORPHISM["2-a"]
    assert transport_bracket(A3, phi5) == A3
    assert transport_bracket(A3, AutoMatrix.identity(3)) == A3
    scale = AutoMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert transport_bracket(A3, scale) == A3


def reference_inverse(m: Matrix) -> Matrix:
    # the right half of the dense Gauss-Jordan form of [m | I], so the
    # references share no code with invert
    n = m.rows
    reduced, pivots = oracle_rref(Matrix.from_rows(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.row_lists())]))
    assert pivots == tuple(range(n))
    return Matrix.from_rows([row[n:] for row in reduced.row_lists()])


def rand_a3_rows(rng: random.Random, digits: int) -> list[list[F]]:
    """The rows of a random automorphism of the standard bracket with
    entries of up to ``digits`` digits: Λ12 = Λ13 = 0, u ≠ 0, det B = 1."""
    bound = 10 ** digits
    u, b11 = (rand_rat(rng, True, -bound, bound, bound) for _ in range(2))
    v1, v2, b12, b21 = (rand_rat(rng, False, -bound, bound, bound) for _ in range(4))
    return [[u, F(0), F(0)], [v1, b11, b12], [v2, b21, (1 + b12 * b21) / b11]]


def test_automorphism_inverse_matches_reference(monkeypatch):
    # automorphisms of [e1,e2,e3] = e1 are constructed without ``invert``,
    # and ``inverse()`` inverts each once; the maps just off that shape go
    # to it once each on construction, singular ones included
    import tpl3.morphisms as morphisms

    inverts = []
    invert = morphisms.invert
    monkeypatch.setattr(morphisms, "invert", lambda m: inverts.append(m) or invert(m))
    rng = random.Random(59)
    identity = Matrix.identity(3)
    big = 0
    for i in range(1000):
        if i % 4:
            m = rand_a3_automorphism(rng)
        else:
            m = AutoMatrix.from_rows(rand_a3_rows(rng, 20))
            big += 1
        assert a3_automorphism_check(m) and inverts == []
        inverse = m.inverse().map
        assert inverts == [m.map]
        inverts.clear()
        assert inverse == reference_inverse(m.map)
        assert mat_mul(m.map, inverse) == identity
    assert big == 250

    outcomes = {"det B = 2": 0, "Λ12 ≠ 0": 0, "u = 0": 0, "singular": 0}
    for i in range(300):
        rows = rand_a3_rows(rng, rng.choice((1, 20)))
        kind = ("det B = 2", "Λ12 ≠ 0", "u = 0")[i % 3]
        if kind == "det B = 2":
            rows[1][1:] = [2 * e for e in rows[1][1:]]
        elif kind == "u = 0":
            rows[0][0] = F(0)
        elif i % 4 == 1:
            # every fourth such map copies its e2 row (b11 ≠ 0) into the e1
            # row, so it is singular
            rows[0] = list(rows[1])
        else:
            rows[0][1] = rand_rat(rng, nonzero=True)
        outcomes[kind] += 1
        matrix = Matrix.from_rows(rows)
        try:
            expected = oracle_invert(matrix)
        except Singular:
            outcomes["singular"] += 1
            with pytest.raises(Singular, match="^automorphism matrices must be invertible$"):
                AutoMatrix(matrix)
        else:
            m = AutoMatrix(matrix)
            assert not a3_automorphism_check(m)
            assert invert(m.map) == expected
        assert inverts == [matrix]
        inverts.clear()
    # every u = 0 map is singular, and so is every copied e1 row
    assert outcomes["singular"] == outcomes["u = 0"] + 25, outcomes


def reference_transport_product(p: CommProduct, m: AutoMatrix) -> CommProduct:
    # φ(φ⁻¹(e_i) · φ⁻¹(e_j)) by the public evaluators
    inverse = reference_inverse(m.map)
    pre = [inverse.row(i) for i in range(p.dim)]
    return CommProduct(p.dim, {
        (i + 1, j + 1): vec_mat(product_eval(p, pre[i], pre[j]), m.map)
        for i, j in combinations_with_replacement(range(p.dim), 2)})


def reference_transport_bracket(b: TriBracket, m: AutoMatrix) -> TriBracket:
    inverse = reference_inverse(m.map)
    pre = [inverse.row(i) for i in range(b.dim)]
    return TriBracket(b.dim, {
        (i + 1, j + 1, k + 1): vec_mat(bracket_eval(b, pre[i], pre[j], pre[k]), m.map)
        for i, j, k in combinations(range(b.dim), 3)})


def rand_entries(rng: random.Random, n: int, density: float) -> Vector:
    return Vector([rand_rat(rng) if rng.random() < density else 0 for _ in range(n)])


def test_transport_matches_evaluator_reference():
    # seeded products and brackets of dimension 1..5, zero, sparse and
    # dense, under random invertible maps
    rng = random.Random(41)
    moved = moved_brackets = 0
    for n in range(1, 6):
        for density in (0, 0.25, 1):
            for _ in range(6):
                p = CommProduct(n, {
                    (i, j): rand_entries(rng, n, density)
                    for i, j in combinations_with_replacement(range(1, n + 1), 2)})
                b = TriBracket(n, {
                    key: rand_entries(rng, n, density)
                    for key in combinations(range(1, n + 1), 3)})
                m = rand_invertible(rng, n)
                moved_p, moved_b = transport_product(p, m), transport_bracket(b, m)
                assert moved_p == reference_transport_product(p, m)
                assert moved_b == reference_transport_bracket(b, m)
                moved += moved_p != p
                moved_brackets += moved_b != b
    assert moved >= 50 and moved_brackets >= 20


def test_transport_inverse_roundtrip():
    rng = random.Random(6)
    for _ in range(30):
        p = rand_family_product(rng)
        m = rand_invertible(rng, 3)
        assert transport_product(transport_product(p, m), m.inverse()) == p


def test_transport_composition_contract():
    # in the row convention the push-forward composes as: the matrix product
    # a·b transports like "a first, then b"
    rng = random.Random(7)
    for _ in range(30):
        p = rand_family_product(rng)
        a = rand_invertible(rng, 3)
        b = rand_invertible(rng, 3)
        composed = AutoMatrix(mat_mul(a.map, b.map))
        assert (transport_product(p, composed)
                == transport_product(transport_product(p, a), b))


def test_transport_preserves_coupling_identity():
    rng = random.Random(12)
    for _ in range(25):
        p = rand_family_product(rng)
        assert check_transposed_leibniz(A3, p).passed
        m = rand_a3_automorphism(rng)
        moved_b = transport_bracket(A3, m)
        moved_p = transport_product(p, m)
        assert moved_b == A3
        assert check_transposed_leibniz(moved_b, moved_p).passed


def test_eleven_residuals_identity_and_fixed_points():
    rng = random.Random(3)
    for _ in range(10):
        p = rand_family_product(rng)
        assert eleven_equation_residuals(p, AutoMatrix.identity(3)) == [0] * 11
    for case in ALL_CASES:
        fam = CASE_FAMILY[str(case)]
        phi = CANONICAL_AUTOMORPHISM[str(case)]
        params = draw_family_params(fam, rng)
        inst = instantiate_family(FamilyInstance.make(fam, **params))
        assert eleven_equation_residuals(inst, phi) == [0] * 11


def test_eleven_residuals_diag_example():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    d = AutoMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, F(1, 2)]])
    residuals = eleven_equation_residuals(t1, d)
    assert residuals[6] == F(-21, 8)
    assert any(residuals)


def test_eleven_residuals_errors():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    with pytest.raises(NotAutomorphism):
        eleven_equation_residuals(t1, AutoMatrix.from_rows(
            [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
    with pytest.raises(ShapeMismatch):
        eleven_equation_residuals(CommProduct(3, {(1, 1): Vector.unit(3, 1)}),
                                  AutoMatrix.identity(3))


def test_eleven_residuals_equivalence_with_fixed_point():
    # all residuals vanish exactly when the transport fixes the product;
    # checked on random (generically moved) pairs and on the genuinely
    # fixed subspace of a random automorphism
    rng = random.Random(31)
    for _ in range(150):
        p = rand_family_product(rng)
        m = rand_a3_automorphism(rng)
        residuals = eleven_equation_residuals(p, m)
        assert (not any(residuals)) == (transport_product(p, m) == p)

    space = A3_PRODUCT_SPACE
    for _ in range(10):
        m = rand_a3_automorphism(rng)
        columns = []
        for idx in range(9):
            coeffs = [F(1) if j == idx else F(0) for j in range(9)]
            basis_p = space.combination(coeffs)
            moved = transport_product(basis_p, m)
            diff = []
            for (i, j) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
                diff.extend((moved.basis_product(i, j) - basis_p.basis_product(i, j)))
            columns.append(diff)
        fixed_system = Matrix.from_rows(columns).transpose()
        for vec in kernel_basis(fixed_system):
            fixed_p = space.combination(vec.entries)
            assert transport_product(fixed_p, m) == fixed_p
            assert eleven_equation_residuals(fixed_p, m) == [0] * 11
