import math
import random
import sys
from collections import Counter
from functools import cache
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpl3 import (CheckReport, CommProduct, FamilyCoordinates, FamilyInstance,
                  ShapeMismatch, TriBracket, Vector, Violation, a3_bracket, bracket_eval,
                  check_commutative_associative, check_fundamental_identity,
                  check_transposed_leibniz, family_coordinates, instantiate_family,
                  remark_associativity_residuals, tp_product_space, transport_bracket)
from tpl3.algebra import _product_table, structure_table
from conftest import rand_family_product, rand_rat, rand_vector, unimodular
from oracles import product_eval

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)
vec3 = st.lists(small_rats, min_size=3, max_size=3).map(Vector)

A3 = a3_bracket()
E = [Vector.unit(3, i) for i in (1, 2, 3)]


def counterexample_bracket() -> TriBracket:
    return TriBracket(5, {(1, 2, 3): Vector.unit(5, 4), (2, 4, 5): Vector.unit(5, 1)})


def test_bracket_storage_rejects_bad_keys():
    with pytest.raises(ValueError):
        TriBracket(3, {(2, 1, 3): Vector.unit(3, 1)})
    with pytest.raises(ValueError):
        TriBracket(3, {(1, 2, 2): Vector.unit(3, 1)})
    with pytest.raises(ValueError):
        CommProduct(3, {(2, 1): Vector.unit(3, 1)})


def test_bracket_eval_examples():
    assert bracket_eval(A3, E[0], E[1], E[2]) == E[0]
    assert bracket_eval(A3, E[0], E[0], E[2]).is_zero()
    assert bracket_eval(A3, E[0] + E[1], E[1], E[2]) == E[0]


def test_bracket_eval_signs():
    assert A3.basis_bracket(2, 1, 3) == -E[0]
    assert A3.basis_bracket(3, 1, 2) == E[0]
    assert A3.basis_bracket(2, 2, 3).is_zero()


def test_product_eval_examples():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=2))
    assert product_eval(t1, E[2], E[2]) == Vector([0, -6, 0])
    assert product_eval(t1, Vector.zero(3), E[1]).is_zero()
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    assert product_eval(t9, E[1], E[2]) == Vector([0, -1, 0])


@settings(max_examples=50)
@given(vec3, vec3, vec3)
def test_bracket_antisymmetry(x, y, z):
    assert bracket_eval(A3, x, y, z) == -bracket_eval(A3, y, x, z)
    assert bracket_eval(A3, x, y, z) == -bracket_eval(A3, x, z, y)
    assert bracket_eval(A3, x, x, z).is_zero()


@settings(max_examples=50)
@given(vec3, vec3, vec3, vec3, small_rats, small_rats)
def test_bracket_multilinearity(x, xp, y, z, a, b):
    left = bracket_eval(A3, x.scale(a) + xp.scale(b), y, z)
    right = bracket_eval(A3, x, y, z).scale(a) + bracket_eval(A3, xp, y, z).scale(b)
    assert left == right


@settings(max_examples=50)
@given(vec3, vec3, vec3, small_rats, small_rats,
       st.lists(small_rats, min_size=9, max_size=9))
def test_product_bilinearity_symmetry(x, xp, y, a, b, coeffs):
    from conftest import A3_PRODUCT_SPACE
    p = A3_PRODUCT_SPACE.combination(coeffs)
    assert product_eval(p, x, y) == product_eval(p, y, x)
    left = product_eval(p, x.scale(a) + xp.scale(b), y)
    right = product_eval(p, x, y).scale(a) + product_eval(p, xp, y).scale(b)
    assert left == right


def test_fundamental_identity_a3_and_zero():
    assert check_fundamental_identity(A3).passed
    assert check_fundamental_identity(TriBracket(4, {})).passed


def test_fundamental_identity_counterexample():
    report = check_fundamental_identity(counterexample_bracket())
    assert not report.passed
    hits = [v for v in report.violations if v.witness == (2, 4, 5, 2, 3)]
    assert len(hits) == 1
    assert hits[0].left == Vector.unit(5, 4)
    assert hits[0].right == Vector.zero(5)


def test_fundamental_identity_random_soundness():
    # the basis-tuple reduction is cross-checked on random rational 5-tuples
    rng = random.Random(5)
    for b in (A3, TriBracket(4, {})):
        assert check_fundamental_identity(b).passed
        n = b.dim
        for _ in range(100):
            x, y, z, u, v = (rand_vector(rng, n) for _ in range(5))
            left = bracket_eval(b, bracket_eval(b, x, y, z), u, v)
            right = (bracket_eval(b, bracket_eval(b, x, u, v), y, z)
                     + bracket_eval(b, bracket_eval(b, y, u, v), z, x)
                     + bracket_eval(b, bracket_eval(b, z, u, v), x, y))
            assert left == right


def reference_fundamental_identity(b: TriBracket) -> CheckReport:
    # the same basis-tuple loop, each side evaluated through bracket_eval
    n = b.dim
    basis = [Vector.unit(n, i) for i in range(1, n + 1)]
    violations = []
    for (x, y, z) in combinations(range(1, n + 1), 3):
        for (u, v) in combinations(range(1, n + 1), 2):
            eu, ev = basis[u - 1], basis[v - 1]
            left = bracket_eval(b, b.basis_bracket(x, y, z), eu, ev)
            right = (bracket_eval(b, b.basis_bracket(x, u, v), basis[y - 1], basis[z - 1])
                     + bracket_eval(b, b.basis_bracket(y, u, v), basis[z - 1], basis[x - 1])
                     + bracket_eval(b, b.basis_bracket(z, u, v), basis[x - 1], basis[y - 1]))
            if left != right:
                violations.append(Violation((x, y, z, u, v), left, right))
    return CheckReport(tuple(violations))


def joined_ideals_bracket() -> TriBracket:
    """[e1,e2,e3] = e4 and [e4,e5,e6] = e1: the two stored triples share no
    index, and only the values join them into one component."""
    return TriBracket(6, {(1, 2, 3): Vector.unit(6, 4), (4, 5, 6): Vector.unit(6, 1)})


def components(b: TriBracket) -> list[set[int]]:
    """The 1-based index sets joined by the stored triples of ``b`` together
    with the support of each one's value."""
    parts = [{i} for i in range(1, b.dim + 1)]
    for key, value in b.table.items():
        joined = set(key) | {t + 1 for t, c in enumerate(value) if c}
        parts = ([p for p in parts if p.isdisjoint(joined)]
                 + [set().union(*(p for p in parts if not p.isdisjoint(joined)))])
    return parts


@cache
def fundamental_identity_corpus() -> tuple[tuple[TriBracket, CheckReport], ...]:
    """The brackets the fundamental-identity check is compared on, each with
    its ``reference_fundamental_identity`` report."""
    rng = random.Random(13)
    simple4 = TriBracket(4, {(1, 2, 3): Vector.unit(4, 4), (1, 2, 4): -Vector.unit(4, 3),
                             (1, 3, 4): Vector.unit(4, 2), (2, 3, 4): -Vector.unit(4, 1)})
    brackets = [A3, simple4, counterexample_bracket()]
    for n in (4, 4, 5, 5):
        # random brackets on every triple, about 30% of coefficients zero
        brackets.append(TriBracket(n, {
            tr: Vector([rand_rat(rng) if rng.random() < 0.7 else 0 for _ in range(n)])
            for tr in combinations(range(1, n + 1), 3)}))
    # sparse brackets, where the check skips tuples whose two sides are
    # both zero: direct sums with abelian parts, the zero bracket and
    # brackets that store about a quarter of the triples
    shifted = lambda b, n, offset: {tuple(i + offset for i in key): Vector(
        [0] * offset + list(v) + [0] * (n - offset - b.dim)) for key, v in b.table.items()}
    brackets += [TriBracket(6, {**shifted(A3, 6, 0), **shifted(A3, 6, 3)}),
                 TriBracket(7, shifted(simple4, 7, 3)),
                 TriBracket(7, shifted(counterexample_bracket(), 7, 1)),
                 TriBracket(6, {})]
    for n in (5, 5, 6, 6, 6, 7):
        brackets.append(TriBracket(n, {
            tr: Vector([rand_rat(rng) if rng.random() < 0.5 else 0 for _ in range(n)])
            for tr in combinations(range(1, n + 1), 3) if rng.random() < 0.25}))
    # two ideals joined only through a value, and A4 ⊕ A3 in a unimodular
    # basis, where the two ideals are no longer spanned by basis vectors
    brackets += [joined_ideals_bracket(),
                 transport_bracket(TriBracket(7, {**shifted(simple4, 7, 0),
                                                  **shifted(A3, 7, 4)}), unimodular(rng, 7))]
    return tuple((b, reference_fundamental_identity(b)) for b in brackets)


def test_fundamental_identity_matches_bracket_eval_reference():
    failing = skipped_tuples = skipped_triples = 0
    for b, reference in fundamental_identity_corpus():
        report = check_fundamental_identity(b)
        assert report == reference
        failing += not report.passed
        n = b.dim
        used = {i for key in b.table for i in key}
        for xyz in combinations(range(1, n + 1), 3):
            if b.basis_bracket(*xyz).is_zero():
                skipped_triples += used.isdisjoint(xyz)
                skipped_tuples += sum(all(b.basis_bracket(a, *uv).is_zero() for a in xyz)
                                      for uv in combinations(range(1, n + 1), 2))
    # the zero bracket skips its 20 triples, simple4 + ab3 the triple (1, 2, 3)
    assert failing >= 8 and skipped_triples > 20 and skipped_tuples > 1000
    joined, image = (b for b, _ in fundamental_identity_corpus()[-2:])
    hits = [v for v in check_fundamental_identity(joined).violations
            if v.witness == (1, 2, 3, 5, 6)]
    assert [(v.left, v.right) for v in hits] == [(Vector.unit(6, 1), Vector.zero(6))]
    # A4 ⊕ A3 is a 3-Lie algebra; in the new basis it is one component
    assert len(components(image)) == 1 and check_fundamental_identity(image).passed


def test_fundamental_identity_violations_stay_in_one_component():
    # the two lemmas the check skips by, on the reference reports: no
    # violation has {u, v} ⊂ {x, y, z}, and none leaves one component
    violations = 0
    for b, reference in fundamental_identity_corpus():
        parts = components(b)
        for v in reference.violations:
            x, y, z, u, w = v.witness
            assert not {u, w} <= {x, y, z}
            assert any(set(v.witness) <= part for part in parts)
            violations += 1
    assert violations > 100


def test_report_entries_are_built_once_per_report():
    # equal entries inside one report are one object: each distinct value
    # of a fundamental-identity or coupling report is divided out once
    repeated = 0
    rng = random.Random(19)
    for b, _ in fundamental_identity_corpus():
        reports = [check_fundamental_identity(b), check_transposed_leibniz(
            b, CommProduct(b.dim, {(1, 1): rand_vector(rng, b.dim)}))]
        for report in reports:
            made: dict[F, list[F]] = {}
            for v in report.violations:
                for e in v.left.entries + v.right.entries:
                    made.setdefault(e, []).append(e)
            for same in made.values():
                assert all(e is same[0] for e in same)
                repeated += len(same) > 1 and same[0] != 0
    assert repeated > 50


def test_transposed_leibniz_examples():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=5))
    assert check_transposed_leibniz(A3, t1).passed
    assert check_transposed_leibniz(A3, CommProduct.zero(3)).passed
    bad = CommProduct(3, {(2, 3): Vector.unit(3, 2)})
    report = check_transposed_leibniz(A3, bad)
    assert not report.passed
    hits = [v for v in report.violations if v.witness == (3, 1, 2, 3)]
    assert len(hits) == 1
    assert hits[0].left == Vector.zero(3)
    assert hits[0].right == Vector.unit(3, 1)


def test_transposed_leibniz_random_soundness():
    rng = random.Random(9)
    for _ in range(20):
        p = rand_family_product(rng)
        assert check_transposed_leibniz(A3, p).passed
        for _ in range(5):
            u, x, y, z = (rand_vector(rng, 3) for _ in range(4))
            left = product_eval(p, u, bracket_eval(A3, x, y, z)).scale(3)
            right = (bracket_eval(A3, product_eval(p, u, x), y, z)
                     + bracket_eval(A3, x, product_eval(p, u, y), z)
                     + bracket_eval(A3, x, y, product_eval(p, u, z)))
            assert left == right


def has_fractional_side(report: CheckReport) -> bool:
    """Whether a violation has a side with a non-integer entry."""
    return any(x.denominator > 1 for v in report.violations
               for x in v.left.entries + v.right.entries)


def reference_transposed_leibniz(b: TriBracket, p: CommProduct) -> CheckReport:
    # the same basis loop, each side evaluated through bracket_eval and
    # product_eval on unit vectors
    n = b.dim
    basis = [Vector.unit(n, i) for i in range(1, n + 1)]
    violations = []
    for u in range(1, n + 1):
        for (x, y, z) in combinations(range(1, n + 1), 3):
            left = product_eval(p, basis[u - 1], b.basis_bracket(x, y, z)).scale(3)
            right = (bracket_eval(b, p.basis_product(u, x), basis[y - 1], basis[z - 1])
                     + bracket_eval(b, basis[x - 1], p.basis_product(u, y), basis[z - 1])
                     + bracket_eval(b, basis[x - 1], basis[y - 1], p.basis_product(u, z)))
            if left != right:
                violations.append(Violation((u, x, y, z), left, right))
    return CheckReport(tuple(violations))


def classify_mix_products(seed: int, rounds: int) -> list[CommProduct]:
    """The first ``rounds`` rounds of the benchmark's classify-mix inputs."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import inputs
    rng = inputs.make_rng(seed, "classify-mix")
    return [CommProduct(3, {key: Vector(vec) for key, vec in item.product.items()})
            for _ in range(rounds) for item in inputs.classify_mix_round(rng)]


def random_bracket(rng: random.Random, n: int, density: float = 0.7,
                   keep: float = 0.8) -> TriBracket:
    """Each triple is stored with probability ``keep``, each coefficient of
    a stored triple is nonzero with probability ``density``."""
    return TriBracket(n, {
        tr: Vector([rand_rat(rng) if rng.random() < density else 0 for _ in range(n)])
        for tr in combinations(range(1, n + 1), 3) if rng.random() < keep})


def random_product(rng: random.Random, n: int, density: float) -> CommProduct:
    table = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if rng.random() < density:
                table[(i, j)] = Vector([rand_rat(rng) if rng.random() < 0.6 else 0
                                        for _ in range(n)])
    return CommProduct(n, table)


def test_transposed_leibniz_matches_eval_reference():
    cases = [(A3, p) for seed in range(1, 6) for p in classify_mix_products(seed, 20)]
    rng = random.Random(23)
    for trial in range(1000):
        n = (3, 3, 3, 3, 3, 3, 4, 4, 4, 5)[trial % 10]
        # sparser brackets and products in dimensions 4 and 5 keep the
        # reference loop affordable
        b = (A3 if n == 3 and trial % 2
             else random_bracket(rng, n, keep=(1, 0.6, 0.3)[n - 3]))
        if trial % 7 == 0:
            # compatible products, so that passing reports are compared too
            space = tp_product_space(b)
            p = space.combination([rand_rat(rng) for _ in range(space.dim)])
        else:
            densities = ((0.2, 0.5, 1.0), (0.2, 0.5), (0.2,))[n - 3]
            p = random_product(rng, n, rng.choice(densities))
        cases.append((b, p))
    passed = 0
    # the check scales both sides by D_bracket·D_product; cases with D > 1
    # on both sides, passing and failing, pin that scale
    rational = Counter()
    for b, p in cases:
        report = check_transposed_leibniz(b, p)
        assert report == reference_transposed_leibniz(b, p)
        passed += report.passed
        if structure_table(b)[0] > 1 and _product_table(p)[0] > 1:
            rational[report.passed] += 1
            rational["fractional"] += has_fractional_side(report)
    assert 100 <= passed <= len(cases) - 500
    assert rational[True] >= 30 and rational[False] >= 300 and rational["fractional"] >= 100


def reference_structure_table(b: TriBracket) -> list:
    # every basis bracket through basis_bracket, as before the direct fill
    n = b.dim
    return [[[tuple((t, c) for t, c in enumerate(b.basis_bracket(i, j, k)) if c)
              for k in range(1, n + 1)]
             for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def test_structure_table_matches_basis_bracket_reference():
    # the integer table divided by its common denominator D is the table of
    # basis brackets, and D is the least common denominator of the bracket
    rng = random.Random(31)
    brackets = [TriBracket(n, {}) for n in (1, 2, 3, 5)]
    brackets += [A3, counterexample_bracket(),
                 TriBracket(4, {(2, 3, 4): Vector([0, 0, F(-3, 2), 0])}),
                 TriBracket(6, {(1, 4, 6): Vector([F(1, 3), 0, 0, 0, 0, -2])})]
    mixed = TriBracket(4, {(1, 2, 3): Vector([F(1, 2), 0, F(-2, 3), 0]),
                           (1, 3, 4): Vector([0, F(3, 4), 0, 5]),
                           (2, 3, 4): Vector([F(-5, 6), 0, 0, F(7, 4)])})
    brackets.append(mixed)
    for n in (1, 2, 3, 4, 5, 6) * 6:
        brackets.append(random_bracket(rng, n, rng.choice((0.2, 0.7, 1.0))))
    for b in brackets:
        den, table = structure_table(b)
        assert den == math.lcm(*(e.denominator for v in b.table.values() for e in v))
        assert all(type(c) is int for row in table for line in row for cell in line
                   for _, c in cell)
        unscaled = [[[tuple((t, F(c, den)) for t, c in cell) for cell in line]
                     for line in row] for row in table]
        assert unscaled == reference_structure_table(b)
    assert structure_table(mixed)[0] == 12


def test_associativity_examples():
    rep = check_commutative_associative(CommProduct.zero(3))
    assert rep.passed
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    rep = check_commutative_associative(t1)
    assert not rep.passed
    hit = [v for v in rep.violations if v.witness == (2, 2, 3)][0]
    assert hit.left == Vector([0, 0, -1])
    assert hit.right == Vector([0, 0, 1])
    idem = CommProduct(2, {(1, 1): Vector.unit(2, 1)})
    rep = check_commutative_associative(idem)
    assert rep.passed


def reference_commutative_associative(p: CommProduct) -> CheckReport:
    # the check before the table-driven one: product_eval on unit vectors
    n = p.dim
    basis = [Vector.unit(n, i) for i in range(1, n + 1)]
    violations = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                left = product_eval(p, p.basis_product(i, j), basis[k - 1])
                right = product_eval(p, basis[i - 1], p.basis_product(j, k))
                if left != right:
                    violations.append(Violation((i, j, k), left, right))
    return CheckReport(tuple(violations))


def associative_product(rng: random.Random, n: int) -> CommProduct:
    """A random commutative associative product: the multiplication of a
    direct sum of copies of the ground field and of the dual numbers
    Q[x]/(x^2), possibly with some factors zero."""
    table, i = {}, 1
    while i <= n:
        kind = rng.choice(("field", "dual", "zero") if i < n else ("field", "zero"))
        if kind == "field":
            table[(i, i)] = Vector.unit(n, i)
        elif kind == "dual":
            # unit e_i, nilpotent e_{i+1}
            table[(i, i)] = Vector.unit(n, i)
            table[(i, i + 1)] = Vector.unit(n, i + 1)
            i += 1
        i += 1
    return CommProduct(n, table)


def test_commutative_associative_matches_eval_reference():
    products = [p for seed in range(1, 6) for p in classify_mix_products(seed, 20)]
    rng = random.Random(29)
    for trial in range(1000):
        n = 1 + trial % 5
        if trial % 5 == 0:
            products.append(associative_product(rng, n))
        else:
            # sparser products in dimensions 4 and 5 keep the reference
            # loop affordable
            densities = (0.2, 0.5, 1.0)[:6 - n] if n > 3 else (0.2, 0.5, 1.0)
            products.append(random_product(rng, n, rng.choice(densities)))
    passed = 0
    # the check scales both sides by D²; products with D > 1, passing and
    # failing, pin that scale
    rational = Counter()
    for p in products:
        report = check_commutative_associative(p)
        assert report == reference_commutative_associative(p)
        passed += report.passed
        if _product_table(p)[0] > 1:
            rational[report.passed] += 1
            rational["fractional"] += has_fractional_side(report)
    assert 200 <= passed <= len(products) - 300
    assert rational[True] >= 40 and rational[False] >= 800 and rational["fractional"] >= 200


def test_family_coordinates_shape():
    t16 = instantiate_family(FamilyInstance.make("T16", gamma=1, xi=F(3, 2)))
    co = family_coordinates(t16)
    assert (co.g, co.h, co.k) == (-3, F(3, 2), -1)
    with pytest.raises(ShapeMismatch):
        family_coordinates(CommProduct(3, {(1, 1): Vector.unit(3, 1)}))
    with pytest.raises(ShapeMismatch):
        family_coordinates(CommProduct(2, {}))
    # e1·e2 coefficient must be exactly (a + w)/2
    bad = CommProduct(3, {(1, 2): Vector.unit(3, 1), (2, 2): Vector.unit(3, 2)})
    with pytest.raises(ShapeMismatch):
        family_coordinates(bad)


def shifted(p: CommProduct, key: tuple[int, int], index: int, delta) -> CommProduct:
    """``p`` with ``delta`` added to coordinate ``index`` of the entry ``key``."""
    table = dict(p.table)
    old = list(p.basis_product(*key))
    old[index] += delta
    table[key] = Vector(old)
    return CommProduct(p.dim, table)


# in family: a + w = 3 and r + t = 0, so e1·e2 = (3/2) e1 and e1·e3 is absent
SHAPED = CommProduct(3, {(1, 2): Vector([F(3, 2), 0, 0]),
                         (2, 2): Vector([1, 2, 3]), (2, 3): Vector([4, 5, 1]),
                         (3, 3): Vector([6, 7, -5])})


def test_family_coordinates_rejects_e1_square():
    assert family_coordinates(SHAPED) == FamilyCoordinates(1, 2, 3, 4, 5, 1, 6, 7, -5)
    for index in range(3):
        with pytest.raises(ShapeMismatch):
            family_coordinates(shifted(SHAPED, (1, 1), index, 1))


def test_family_coordinates_rejects_e2_e3_components_of_e1_products():
    for key in ((1, 2), (1, 3)):
        for index in (1, 2):
            with pytest.raises(ShapeMismatch):
                family_coordinates(shifted(SHAPED, key, index, F(-1, 3)))


def test_family_coordinates_rejects_wrong_e1_coefficient():
    # a present entry that should be (a+w)/2, and an entry that should be
    # absent since (r+t)/2 = 0
    for key in ((1, 2), (1, 3)):
        with pytest.raises(ShapeMismatch):
            family_coordinates(shifted(SHAPED, key, 0, 1))
    # the entry is missing although (a+w)/2 = 3/2
    table = dict(SHAPED.table)
    del table[(1, 2)]
    with pytest.raises(ShapeMismatch):
        family_coordinates(CommProduct(3, table))


def test_family_coordinates_of_absent_entries_are_fractions():
    for p in (CommProduct.zero(3), CommProduct(3, {(1, 3): Vector([1, 0, 0]),
                                                   (2, 3): Vector([0, 2, 0])})):
        co = family_coordinates(p)
        assert co.as_product() == p
        values = [co.g, co.a, co.q, co.h, co.r, co.w, co.k, co.s, co.t]
        assert all(type(x) is F for x in values)


#: the products of the three ShapeMismatch tests above, one per kind
SHAPE_MISMATCHES = {
    **{f"e1·e1 entry {i}": shifted(SHAPED, (1, 1), i, 1) for i in range(3)},
    **{f"e1·e{j} entry {i}": shifted(SHAPED, (1, j), i, F(-1, 3))
       for j in (2, 3) for i in (1, 2)},
    **{f"e1·e{j} coefficient": shifted(SHAPED, (1, j), 0, 1) for j in (2, 3)},
    "e1·e2 missing": CommProduct(3, {key: v for key, v in SHAPED.table.items()
                                     if key != (1, 2)}),
}

#: denominators of the mixed-denominator draws
MIXED_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 12, 35)


def mixed_rat(rng: random.Random, nonzero: bool = False) -> F:
    while True:
        value = F(rng.randint(-9, 9), rng.choice(MIXED_DENOMINATORS))
        if value or not nonzero:
            return value


def mixed_coordinates(rng: random.Random, trial: int) -> FamilyCoordinates:
    """Coordinates over mixed denominators; every third draw is in one of
    the four case condition sets, with a random subcase zero pattern."""
    values = [mixed_rat(rng) if rng.random() < 0.8 else F(0) for _ in range(9)]
    g, a, q, h, r, w, k, s, t = values
    if trial % 3 == 0:
        case = 1 + trial // 6 % 4
        g, h, k = (mixed_rat(rng, nonzero=True) for _ in range(3))
        sub = rng.choice("abcd")
        g, h, k = (F(0) if sub == "a" else g, F(0) if sub == "b" else h,
                   F(0) if sub == "c" else k)
        nonzero = [mixed_rat(rng, nonzero=True) for _ in range(3)]
        if case in (1, 2):
            a, s, r, t, q = nonzero[0], nonzero[1], F(0), F(0), (F(0) if case == 1 else nonzero[2])
            w = -a
        else:
            r, q, a, w, s = nonzero[0], nonzero[1], F(0), F(0), (F(0) if case == 3 else nonzero[2])
            t = -r
    return FamilyCoordinates(g, a, q, h, r, w, k, s, t)


def mixed_product(rng: random.Random, trial: int) -> tuple[CommProduct, str]:
    """A family product over mixed denominators, or one of the
    ShapeMismatch kinds of ``SHAPE_MISMATCHES`` applied to one."""
    p = mixed_coordinates(rng, trial).as_product()
    kind = "in family" if trial % 2 else rng.choice(tuple(SHAPE_MISMATCHES))
    if kind.startswith("e1·e1"):
        p = shifted(p, (1, 1), int(kind[-1]), mixed_rat(rng, nonzero=True))
    elif kind.endswith("coefficient"):
        p = shifted(p, (1, int(kind[4])), 0, mixed_rat(rng, nonzero=True))
    elif kind.endswith("missing"):
        # absent, or present and not (a+w)/2 when a + w = 0
        table = dict(p.table)
        if table.pop((1, 2), None) is None:
            table[(1, 2)] = Vector([mixed_rat(rng, nonzero=True), 0, 0])
        p = CommProduct(3, table)
    elif kind.startswith("e1·e"):
        p = shifted(p, (1, int(kind[4])), int(kind[-1]), mixed_rat(rng, nonzero=True))
    return p, kind


def test_integer_read_matches_the_fraction_reference():
    # the integer read and its Fraction wrapper against the shape test on
    # stored Fractions, and the integer case helper against the case test:
    # on every ShapeMismatch kind above, on a wrong dimension, and on mixed
    # denominator products of every kind
    from tpl3.algebra import _cleared_coordinates
    from tpl3.families import _case_of, detect_case
    from oracles import reference_case, reference_family_coordinates

    products = [(p, kind) for kind, p in SHAPE_MISMATCHES.items()]
    products += [(SHAPED, "in family"), (CommProduct.zero(3), "in family"),
                 (CommProduct(2, {}), "dimension")]
    rng = random.Random(83)
    products += [mixed_product(rng, trial) for trial in range(1200)]
    seen = Counter()
    for p, kind in products:
        try:
            expected = reference_family_coordinates(p)
        except ShapeMismatch:
            with pytest.raises(ShapeMismatch):
                _cleared_coordinates(p)
            with pytest.raises(ShapeMismatch):
                family_coordinates(p)
            with pytest.raises(ShapeMismatch):
                detect_case(p)
            seen[f"mismatch: {kind}"] += 1
            continue
        den, *values = read = _cleared_coordinates(p)
        assert den == _product_table(p)[0] and all(type(v) is int for v in read)
        assert FamilyCoordinates(*(F(v, den) for v in values)) == expected, p
        assert family_coordinates(p) == expected
        case = reference_case(expected)
        fractions = (getattr(expected, name) for name in "gaqhrwkst")
        assert _case_of(*values) == _case_of(*fractions) == detect_case(p) == case
        seen[f"{kind}: {case or 'no case'}"] += 1
    assert {f"mismatch: {kind}" for kind in (*SHAPE_MISMATCHES, "dimension")} <= set(seen)
    assert min(seen[f"mismatch: {kind}"] for kind in SHAPE_MISMATCHES) >= 30, seen
    assert {f"in family: {case}-{sub}" for case in (1, 2, 3, 4) for sub in "abcd"} <= set(seen)
    assert seen["in family: no case"] >= 100, seen


def test_product_table_memo_stays_outside_the_value():
    # the memo is built once, never copied, pickled, compared, hashed or
    # shown, and classify answers alike on a fresh product and on one whose
    # memo is filled
    import copy
    import pickle

    from tpl3 import classify

    rng = random.Random(89)
    products = [mixed_product(rng, trial)[0] for trial in range(240)]
    products += classify_mix_products(1, 12)
    for p in products:
        fresh = CommProduct(p.dim, p.table)
        shown = (hash(p), repr(p))
        assert p._table is None
        table = _product_table(p)
        assert _product_table(p) is table is p._table
        snapshot = copy.deepcopy(table)
        assert p == fresh and (hash(p), repr(p)) == shown
        for other in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert other == p and other._table is None and repr(other) == repr(p)
        assert classify(A3, p) == classify(A3, fresh)
        assert p._table is table and table == snapshot == fresh._table


def test_remark_residuals_zero_product():
    assert remark_associativity_residuals(CommProduct.zero(3)) == [0] * 8


def test_remark_residuals_t1():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    residuals = remark_associativity_residuals(t1)
    assert residuals[5] == 2  # displayed equation 6: a*a - (-a*a) at alpha=1


def test_remark_residuals_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        remark_associativity_residuals(CommProduct(3, {(1, 1): Vector.unit(3, 1)}))


def associative_family_samples():
    # associative members of the solved family, used to exercise the
    # necessity direction with a nonvacuous antecedent
    yield CommProduct.zero(3)
    yield CommProduct(3, {(2, 2): Vector([F(3), 0, 0])})
    yield CommProduct(3, {(3, 3): Vector([F(-2), 0, 0])})
    yield CommProduct(3, {(2, 2): Vector([1, 0, 0]), (2, 3): Vector([2, 0, 0]),
                          (3, 3): Vector([4, 0, 0])})


def test_remark_residuals_necessity():
    # associativity of a solved-family product forces all eight residuals to 0
    rng = random.Random(1)
    seen_associative = 0
    samples = list(associative_family_samples())
    samples += [rand_family_product(rng) for _ in range(200)]
    for p in samples:
        rep = check_commutative_associative(p)
        if rep.passed:
            seen_associative += 1
            assert remark_associativity_residuals(p) == [0] * 8
    assert seen_associative >= 4


def test_checkreport_passed_iff_no_violations():
    rep = check_fundamental_identity(counterexample_bracket())
    assert rep.passed == (len(rep.violations) == 0)
    rep = check_fundamental_identity(A3)
    assert rep.passed == (len(rep.violations) == 0)
