import importlib
import math
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

from tpl3 import (ALL_CASES, CANONICAL_AUTOMORPHISM, FAMILY_IDS, FAMILY_PARAMS,
                  AutoMatrix, CaseId, Certificate, CommProduct, DerivationQuery,
                  DimensionMismatch, FamilyCoordinates, FamilyInstance, Matrix,
                  NeedsExtension, NotTransposedPoisson, ShapeMismatch, Singular, TriBracket,
                  Unclassified, Unsupported, Vector, a3_automorphism_check, a3_bracket,
                  check_transposed_leibniz, classify, delta_derivations, detect_case,
                  draw_family_params, family_coordinates, fingerprint, instantiate_family,
                  normalize, parse_document, rank, rational_root, tp_product_space,
                  transport_bracket, transport_product, verify_all_cases, verify_paper_case)
from conftest import (dispatch_key, rand_a3_automorphism, rand_family_product, rand_rat,
                      scaled_shift_witness)
from oracles import (Infeasible, determinant, kernel_basis, left_multiplication,
                     oracle_solve_affine)
from test_algebra import classify_mix_products
from test_classify_digest import corpus
from test_morphisms import reference_inverse
from tpl3.algebra import _cleared_coordinates
from tpl3.classify import _candidate_blocks, _moved_coordinates
from tpl3.families import _CANONICAL_ROWS, _case_of, _table_form, table_rows
from tpl3.morphisms import _homomorphism

A3 = a3_bracket()


def product_from(table):
    return CommProduct(3, {k: Vector(v) for k, v in table.items()})


def test_normalize_canonical_instances_identity_witness():
    rng = random.Random(1)
    for fam in FAMILY_IDS:
        params = draw_family_params(fam, rng)
        inst = instantiate_family(FamilyInstance.make(fam, **params))
        out = normalize(inst)
        assert isinstance(out, Certificate)
        assert out.family.id == fam
        assert out.family.param_map == params
        assert out.witness.map == Matrix.identity(3)
        assert out.validate()


def test_normalize_scaled_example():
    p = product_from({(2, 2): [0, F(1, 2), 0], (2, 3): [0, 0, F(-1, 2)],
                      (3, 3): [0, -24, 0]})
    out = normalize(p)
    assert isinstance(out, Certificate)
    assert out.family.id == "T1"
    assert out.family.param_map == {"alpha": F(1)}
    assert transport_product(p, out.witness) == instantiate_family(out.family)


def test_normalize_needs_extension_example():
    p = product_from({(2, 2): [0, 1, 0], (2, 3): [0, 0, -1], (3, 3): [0, -6, 0]})
    out = normalize(p)
    assert out == NeedsExtension(radicand=F(1, 2), degree=4)
    # the radicand is genuinely not a rational fourth power
    assert rational_root(out.radicand, out.degree) is None
    # with a nonvanishing shift residual neither T3 nor T2/T4 is reachable:
    # subcase c reports the T3 radicand, the other subcases the T2/T4 one
    p = product_from({(2, 2): [1, 1, 0], (2, 3): [1, 0, -1], (3, 3): [0, -1, 0]})
    assert normalize(p) == NeedsExtension(radicand=F(4, 3), degree=4)
    p = product_from({(2, 2): [1, 1, 0], (2, 3): [1, 0, -1], (3, 3): [1, -1, 0]})
    assert normalize(p) == NeedsExtension(radicand=F(3), degree=4)


def test_normalize_unclassified():
    assert isinstance(normalize(CommProduct.zero(3)), Unclassified)
    with pytest.raises(ShapeMismatch):
        normalize(CommProduct(3, {(1, 1): Vector.unit(3, 1)}))


def test_classify_examples():
    t13 = instantiate_family(FamilyInstance.make("T13", gamma=1))
    out = classify(A3, t13)
    assert isinstance(out, Certificate)
    assert out.family.id == "T13" and out.family.param_map == {"gamma": F(1)}
    assert out.witness.map == Matrix.identity(3)

    phi9 = CANONICAL_AUTOMORPHISM["3-a"]
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    out = classify(A3, transport_product(t9, phi9))
    assert isinstance(out, Certificate)
    assert out.family.id == "T9" and out.family.param_map == {"gamma": F(1)}

    bad = CommProduct(3, {(2, 3): Vector.unit(3, 2)})
    out = classify(A3, bad)
    assert isinstance(out, NotTransposedPoisson)
    assert (3, 1, 2, 3) in [v.witness for v in out.report.violations]


def test_classify_unsupported_bracket():
    other = TriBracket(3, {(1, 2, 3): Vector.unit(3, 2)})
    assert isinstance(classify(other, CommProduct.zero(3)), Unsupported)
    scaled = TriBracket(3, {(1, 2, 3): Vector([2, 0, 0])})
    assert isinstance(classify(scaled, CommProduct.zero(3)), Unsupported)


def gate_brackets() -> list[TriBracket]:
    """Brackets around the standard one: itself, fresh and parsed with an
    unreduced coefficient, its multiples and other values of [e1,e2,e3],
    the zero bracket, and brackets of dimensions 2 and 4."""
    document = b'{"dim":3,"bracket":[{"args":[1,2,3],"value":{"1":"2/2"}}]}'
    brackets = [a3_bracket(), parse_document(document).bracket]
    for value in ([2, 0, 0], [F(1, 2), 0, 0], [-1, 0, 0], [0, 1, 0], [1, 1, 0]):
        brackets.append(TriBracket(3, {(1, 2, 3): Vector(value)}))
    brackets += [TriBracket(3, {}), TriBracket(2, {}),
                 TriBracket(4, {(1, 2, 3): Vector.unit(4, 1)})]
    return brackets


def test_classify_gate_matches_bracket_equality():
    # the gate reads integer structure tables; the oracle is record equality
    for b in gate_brackets():
        out = classify(b, CommProduct.zero(b.dim))
        assert isinstance(out, Unsupported) == (b != a3_bracket()), b
    # a bracket of another dimension is turned away before any table is built
    sparse = TriBracket(32, {(1, 2, 3): Vector.unit(32, 1), (30, 31, 32): Vector.unit(32, 4)})
    assert isinstance(classify(sparse, CommProduct.zero(32)), Unsupported)
    assert sparse._structure is None


def reported_values(out):
    """The records of a classify result that the integer readers build
    (witness map, violation sides) and every reported scalar."""
    records, scalars = [], []
    if isinstance(out, Certificate):
        records.append(out.witness.map)
        scalars += [value for _, value in out.family.params]
        # the transported input is built entry by entry from integers too
        records += list(transport_product(out.input, out.witness).table.values())
    elif isinstance(out, NeedsExtension):
        scalars.append(out.radicand)
    elif isinstance(out, NotTransposedPoisson):
        for v in out.report.violations:
            records += [v.left, v.right]
    for record in records:
        scalars += record.entries
    return records, scalars


def public_copy(record):
    if isinstance(record, Vector):
        return Vector(list(record))
    return Matrix.from_rows(record.row_lists())


def test_reported_values_are_exact_fractions_with_public_semantics():
    kinds = Counter()
    for p in corpus() + classify_mix_products(7, 40):
        out = classify(A3, p)
        kinds[type(out).__name__] += 1
        records, scalars = reported_values(out)
        assert all(type(x) is F for x in scalars), out
        for record in records:
            copy = public_copy(record)
            assert record == copy and hash(record) == hash(copy)
            assert repr(record) == repr(copy)
            assert pickle.dumps(record) == pickle.dumps(copy)
            assert pickle.loads(pickle.dumps(record)) == record
    assert min(kinds[name] for name in ("Certificate", "NeedsExtension",
                                        "NotTransposedPoisson")) > 0, kinds


def test_classify_roundtrip_shape_preserving():
    # transported canonical instances classify back to the same family with
    # a valid witness whenever the transport preserves the dispatch data
    rng = random.Random(99)
    certificates = 0
    for trial in range(120):
        fam = FAMILY_IDS[rng.randrange(16)]
        params = draw_family_params(fam, rng)
        inst = instantiate_family(FamilyInstance.make(fam, **params))
        key = dispatch_key(inst)
        while True:
            m = scaled_shift_witness(rng)
            moved = transport_product(inst, m)
            if dispatch_key(moved) == key:
                break
        out = classify(A3, moved)
        assert isinstance(out, Certificate), (fam, params, m.map, out)
        assert out.family.id == fam
        assert out.validate()
        certificates += 1
    assert certificates == 120


def test_normalize_case2_and_case4_quadratic_extensions():
    # scale T5 so the block fix needs c**2 = 2: no rational witness exists
    t5 = instantiate_family(FamilyInstance.make("T5", alpha=1))
    c = F(2)  # witness diag block scales q/a by c**2... build by transport
    m = AutoMatrix.from_rows([[1, 0, 0], [0, c, 0], [0, 0, 1 / c]])
    moved = transport_product(t5, m)
    # moved has q/a = 1/c**2 = 1/4: still a rational square, so certificate
    out = classify(A3, moved)
    assert isinstance(out, Certificate) and out.family.id == "T5"

    # handcrafted case-2 product with q/a = 2 on the reachable stratum:
    # a = 1, q = 2, s = -3a**3/q**2 = -3/4
    p = product_from({(2, 2): [0, 1, 2], (2, 3): [0, 0, -1],
                      (3, 3): [0, F(-3, 4), 0]})
    out = normalize(p)
    assert out == NeedsExtension(radicand=F(2), degree=2)
    assert rational_root(F(2), 2) is None

    # handcrafted case-4 product with -r/s = 3: r = -3, t = 3, s = 1,
    # q = 3 r**3 / s**2 = -81
    p = product_from({(2, 2): [0, 0, -81], (2, 3): [0, -3, 0],
                      (3, 3): [0, 1, 3]})
    out = normalize(p)
    assert out == NeedsExtension(radicand=F(3), degree=2)


def test_normalize_case3_quartic_extension():
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    # scale e2/e3 block: q/(3r) becomes 1/c**4; pick an off-orbit variant
    p = product_from({(2, 2): [0, 0, -6], (2, 3): [0, -1, 0], (3, 3): [0, 0, 1]})
    out = normalize(p)
    assert out == NeedsExtension(radicand=F(2), degree=4)
    assert isinstance(normalize(t9), Certificate)


def test_normalize_off_stratum_case2():
    # case-2 conditions hold but q**2 s != -3 a**3, and the quotient cubic
    # x³ − 3x²y − y³ has discriminant −135, no square, as that of every
    # table cubic is: no table is isomorphic to it
    p = product_from({(2, 2): [0, 1, 1], (2, 3): [0, 0, -1], (3, 3): [0, 1, 0]})
    assert detect_case(p) is not None
    out = normalize(p)
    assert out == Unclassified(
        f"{DISCRIMINANT_REASON}: not isomorphic to any canonical table over the rationals")


def test_normalize_t3_quartic_dispatch():
    # inputs reachable onto the distinct-ratio family are recognised by the
    # quartic match even from non-canonical shift patterns
    rng = random.Random(55)
    t3 = instantiate_family(FamilyInstance.make("T3", alpha=F(5, 2)))
    for _ in range(10):
        m = scaled_shift_witness(rng)
        out = classify(A3, transport_product(t3, m))
        assert isinstance(out, Certificate)
        assert out.family.id == "T3"


def test_normalize_nonstandard_zero_patterns():
    # inputs whose raw zero pattern differs from every canonical table still
    # certify onto the family selected by the reduction invariants
    def shifted(fam_id, witness_rows, **params):
        inst = instantiate_family(FamilyInstance.make(fam_id, **params))
        moved = transport_product(inst, AutoMatrix.from_rows(witness_rows))
        out = classify(A3, moved)
        assert isinstance(out, Certificate), (fam_id, out)
        assert out.validate()
        return detect_case(moved), out.family.id

    # case 1, raw pattern c (k = 0) but nonzero shift residual: lands on T2
    case, fam = shifted("T2", [[1, 0, 0], [1, 1, 0], [F(1, 7), 0, 1]],
                        alpha=1, theta=1)
    assert (case.case, case.subcase) == (1, "c") or case.subcase in "cd"
    # case 3, raw pattern a (g = 0) with nonzero residual: lands on T10
    t10 = instantiate_family(FamilyInstance.make("T10", gamma=1, eta=2))
    kill_g = AutoMatrix.from_rows([[1, 0, 0], [0, 1, 0], [2, 0, 1]])
    moved = transport_product(t10, kill_g)
    assert detect_case(moved).subcase == "a"
    out = classify(A3, moved)
    assert isinstance(out, Certificate) and out.family.id == "T10"
    # case 4, raw pattern b (h = 0) with vanishing residual: lands on T15
    t15 = instantiate_family(FamilyInstance.make("T15", gamma=1))
    kill_h = AutoMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    moved = transport_product(t15, kill_h)
    assert detect_case(moved).subcase == "b"
    out = classify(A3, moved)
    assert isinstance(out, Certificate) and out.family.id == "T15"


#: a case-3 input whose in-case quartic radicand 4/9 is not a fourth power,
#: yet a square-determinant root matching lands it on T3
SPLIT_RESCUE = {(2, 2): [2, 0, -2], (2, 3): [F(-1, 2), F(-3, 2), 0],
                (3, 3): [-1, 0, F(3, 2)]}
#: an image of T4 under an e1 shift: the identity block certifies it
IN_CASE = {(2, 2): [1, 1, 0], (2, 3): [1, 0, -1], (3, 3): [1, -3, 0]}


def test_split_route_rescues_cross_case_isomorphisms():
    # the condition sets are not isomorphism-invariant: the identity block
    # fails on SPLIT_RESCUE, a root-matching block certifies it
    p = product_from(SPLIT_RESCUE)
    out = classify(A3, p)
    assert isinstance(out, Certificate)
    assert out.family.id == "T3"
    assert out.family.param_map == {"alpha": F(-3, 2)}
    assert out.validate()


@pytest.mark.parametrize("table", [IN_CASE, SPLIT_RESCUE], ids=["in-case", "split-rescue"])
def test_certificate_validated_exactly_once(monkeypatch, table):
    validated = []
    original = Certificate.validate

    def counting(cert):
        validated.append(cert)
        return original(cert)

    monkeypatch.setattr(Certificate, "validate", counting)
    out = classify(A3, product_from(table))
    assert isinstance(out, Certificate)
    assert validated == [out]


@pytest.mark.parametrize("table", [IN_CASE, SPLIT_RESCUE], ids=["in-case", "split-rescue"])
def test_tampered_witness_fails_revalidation(monkeypatch, table):
    module = importlib.import_module("tpl3.classify")
    original = module._solve_witness

    def wrong_shift(*args):
        solved = original(*args)
        if solved is None:
            return None
        u, x, y, z = solved
        return u, x + 1, y, z

    monkeypatch.setattr(module, "_solve_witness", wrong_shift)
    with pytest.raises(RuntimeError, match="failed revalidation"):
        classify(A3, product_from(table))


def reference_validate(cert: Certificate) -> bool:
    """Revalidation through the public products: transport, then compare
    with the instantiated table."""
    return (a3_automorphism_check(cert.witness)
            and transport_product(cert.input, cert.witness) == instantiate_family(cert.family))


def corrupted_certificates(rng: random.Random, cert: Certificate):
    """(kind, certificate) for each corruption of a genuine certificate."""
    entries = list(cert.witness.map.entries)
    index = rng.randrange(9)
    entries[index] += rand_rat(rng, nonzero=True)
    try:
        witness = AutoMatrix(Matrix(3, 3, tuple(entries)))
    except Singular:
        pass
    else:
        shape = "kept" if a3_automorphism_check(witness) else "broken"
        yield f"witness entry, A3 shape {shape}", Certificate(cert.input, cert.family, witness)
    family = cert.family
    names = FAMILY_PARAMS[family.id]
    params = family.param_map
    name = rng.choice(names)
    params[name] += rng.choice((1, -1))
    yield "parameter ±1", Certificate(cert.input, FamilyInstance.make(family.id, **params),
                                      cert.witness)
    other = rng.choice([f for f in FAMILY_IDS
                        if f != family.id and len(FAMILY_PARAMS[f]) == len(names)])
    values = [value for _, value in family.params]
    yield "family id", Certificate(
        cert.input, FamilyInstance.make(other, **dict(zip(FAMILY_PARAMS[other], values))),
        cert.witness)
    pair = rng.choice(((1, 1), (1, 2)))
    table = dict(cert.input.table)
    table[pair] = cert.input.basis_product(*pair) + Vector(
        [rand_rat(rng, nonzero=True), rand_rat(rng), rand_rat(rng)])
    yield f"input e{pair[0]}·e{pair[1]}", Certificate(CommProduct(3, table), cert.family,
                                                     cert.witness)
    for rows in singular_homomorphisms(cert):
        yield "singular homomorphism", Certificate(cert.input, cert.family, unchecked_map(rows))


def unchecked_map(rows) -> AutoMatrix:
    """An ``AutoMatrix`` around a map that construction would reject as
    singular; its inverse slot stays unset, so reading it fails."""
    m = object.__new__(AutoMatrix)
    object.__setattr__(m, "map", Matrix.from_rows(rows))
    return m


def singular_homomorphisms(cert: Certificate):
    """Rows of singular maps φ with φ(x·y) = φ(x) ∗ φ(y) from the input of a
    genuine certificate to its table: the zero map, and on a table with no e1
    components (T1, T5, T9, T13) the witness followed by the projection onto
    e1, which sends every product of the table to 0."""
    yield [[0, 0, 0]] * 3
    table = family_coordinates(instantiate_family(cert.family))
    if table.g == table.h == table.k == 0:
        yield [[row[0], 0, 0] for row in cert.witness.map.row_lists()]


def test_integer_validate_matches_the_reference():
    # genuine certificates onto all 16 tables, each with one of every kind of
    # corruption; a third of the witnesses have no shift, so that only the
    # e1·e1 entry of the transported product reveals a corrupted e1·e1
    rng = random.Random(2968)
    outcomes: dict[str, set] = {}
    certified = projections = 0
    for trial in range(13):
        for fam in FAMILY_IDS:
            family = FamilyInstance.make(fam, **draw_family_params(fam, rng))
            m = rand_a3_automorphism(rng)
            if trial % 3 == 0:
                (l11, _, _), (_, l22, l23), (_, l32, l33) = m.map.row_lists()
                m = AutoMatrix.from_rows([[l11, 0, 0], [0, l22, l23], [0, l32, l33]])
            genuine = Certificate(transport_product(instantiate_family(family), m), family,
                                  m.inverse())
            for kind, cert in [("genuine", genuine), *corrupted_certificates(rng, genuine)]:
                verdict = cert.validate()
                assert verdict == reference_validate(cert), (kind, cert)
                if kind == "singular homomorphism":
                    # it passes the homomorphism test; only the automorphism
                    # check, which proves the witness invertible, rejects it
                    assert _homomorphism(cert.input, cert.witness, *table_rows(cert.family))
                    projections += any(cert.witness.map.row_lists()[0])
                outcomes.setdefault(kind, set()).add(verdict)
                certified += 1
    assert certified >= 1000 and projections >= 40
    assert outcomes.pop("genuine") == {True}
    assert set(outcomes) == {"witness entry, A3 shape kept", "witness entry, A3 shape broken",
                             "parameter ±1", "family id", "input e1·e1", "input e1·e2",
                             "singular homomorphism"}
    assert all(False in verdicts for verdicts in outcomes.values()), outcomes


def test_table_forms_give_the_canonical_pair_rows():
    # the witness solve and revalidation read every table from its integer
    # linear forms, so a wrong form would pass both; compare each form with
    # the Fraction rows of _CANONICAL_ROWS at zero, small and 20-digit values
    rng = random.Random(6174)
    big = 10 ** 20
    checked = 0
    for fam in FAMILY_IDS:
        names = FAMILY_PARAMS[fam]
        den, first, second = _table_form(fam)
        if len(names) == 1:
            assert not any(e for row in second for e in row)
        values = [F(0), F(1), rand_rat(rng, nonzero=True),
                  rand_rat(rng, True, -big, big, big), rand_rat(rng, True, -big, big, big)]
        for primary, secondary in product(values, repeat=2):
            params = dict(zip(names, (primary, secondary)))
            expected = FamilyCoordinates(*_CANONICAL_ROWS[fam](primary, secondary)).pair_rows()
            assert tuple(tuple(F(primary * a + secondary * b) / den for a, b in zip(x, y))
                         for x, y in zip(first, second)) == expected
            if primary:
                scale, rows = table_rows(FamilyInstance.make(fam, **params))
                assert tuple(tuple(F(e, scale) for e in row) for row in rows) == expected
                checked += 1
    assert checked == 16 * 4 * 5


def test_certificate_witnesses_build_no_inverse(monkeypatch):
    # classify neither eliminates nor inverts for a certificate, and a
    # witness keeps no inverse: inverting it changes no field, hash, repr or
    # pickle
    linalg = importlib.import_module("tpl3.linalg")
    eliminations = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows: eliminations.append(rows) or echelon(rows))
    witnesses = [out.witness for p in classify_mix_products(1, 300)
                 if isinstance(out := classify(A3, p), Certificate)]
    assert len(witnesses) >= 300 and eliminations == []
    monkeypatch.undo()
    for witness in witnesses[:60]:
        before = (hash(witness), repr(witness), pickle.dumps(witness))
        copy = pickle.loads(before[2])
        assert witness.inverse().map == reference_inverse(witness.map)
        assert (hash(witness), repr(witness), pickle.dumps(witness)) == before
        assert witness == copy and hash(copy) == before[0]


def candidate_block_inputs() -> list[tuple[CommProduct, tuple[int, ...]]]:
    """Every in-case product of the digest corpus and of seeded table-cubic
    images, with each of its candidate blocks.  An image is a split table
    cubic, h₂ or its case-4 form moved by a random GL2 map, then sheared by
    y ↦ y + t·x into case 1 or 2, with a random e1 row."""
    rng = random.Random(3301)
    products = corpus()
    for cubic in (*SPLIT_CUBICS, H2, H4):
        for _ in range(12):
            f = substitute(cubic, random_gl2(rng))
            if f[3]:
                f = substitute(f, ((F(1), F(0)), (-f[2] / (3 * f[3]), F(1))))
                products.append(cubic_coordinates(f, [rand_rat(rng) for _ in range(3)])
                                .as_product())
    pairs = []
    for p in products:
        try:
            co = _cleared_coordinates(p)
        except ShapeMismatch:
            continue
        if _case_of(*co[1:]) is not None:
            pairs += [(p, b) for b in _candidate_blocks(co)[0] if b is not None]
    return pairs


def block_matrix(block) -> Matrix:
    # the SL2 matrix of an integer block (b11, b12, b21, b22, m), entries over m
    *entries, m = block
    return Matrix(2, 2, [F(e, m) for e in entries])


def assert_block_move_matches_transport(p: CommProduct, block):
    # the transported product's cleared coordinates are the oracle, and the
    # integer tuple is a positive multiple of them
    (b11, b12), (b21, b22) = block_matrix(block).row_lists()
    oracle = _cleared_coordinates(transport_product(
        p, AutoMatrix.from_rows([[1, 0, 0], [0, b11, b12], [0, b21, b22]])))
    moved = _moved_coordinates(_cleared_coordinates(p), block)
    assert all(type(v) is int for v in moved) and moved[0] > 0
    assert [v * oracle[0] for v in moved] == [v * moved[0] for v in oracle], (p, block)


def test_block_move_matches_the_transport_oracle():
    # normalize moves each candidate block on integers: each one is SL2 over
    # a positive m, with a positive first nonzero entry
    pairs = candidate_block_inputs()
    for p, block in pairs:
        b11, b12, b21, b22, m = block
        assert m > 0 and b11 * b22 - b12 * b21 == m * m, block
        assert next(e for e in (b11, b12) if e) > 0, block
        assert_block_move_matches_transport(p, block)
    # the digest corpus alone gives 585 blocks, among them the 114 that
    # normalize's block loops see on it
    assert len(pairs) >= 620, len(pairs)
    # the closed form holds on the whole family: seeded SL2(ℚ) blocks with
    # fractional and negative entries, over a multiple of their common
    # denominator, on products with a nonzero trace form and e1 row
    rng = random.Random(3607)
    fractional = negative = 0
    for _ in range(200):
        p = rand_family_product(rng)
        co = family_coordinates(p)
        if (co.a + co.w, co.r + co.t) == (0, 0) or (co.g, co.h, co.k) == (0, 0, 0):
            continue
        l22, l23, l32 = rand_rat(rng, nonzero=True), rand_rat(rng), rand_rat(rng)
        entries = (l22, l23, l32, (1 + l23 * l32) / l22)
        m = math.lcm(*(e.denominator for e in entries)) * rng.randint(1, 3)
        assert_block_move_matches_transport(p, (*(int(e * m) for e in entries), m))
        fractional += any(e.denominator > 1 for e in entries)
        negative += any(e < 0 for e in entries)
    assert fractional >= 150 and negative >= 150, (fractional, negative)


def test_normalize_builds_one_automatrix_per_certificate(monkeypatch):
    # the candidate blocks move the input with no AutoMatrix: the only one
    # built is each certificate's witness
    from tpl3 import morphisms

    products = list({id(p): p for p, _ in candidate_block_inputs()}.values())
    constructions = []
    post_init = morphisms.AutoMatrix.__post_init__
    monkeypatch.setattr(morphisms.AutoMatrix, "__post_init__",
                        lambda self: constructions.append(post_init(self)))
    certificates = sum(isinstance(normalize(p), Certificate) for p in products)
    assert certificates >= 140 and len(constructions) == certificates


# --- cases 2 and 4: the sign class of the radicand --------------------------------

def reachable_product(rng: random.Random, case: int, radicand: F) -> CommProduct:
    """A case-2 (q²s = −3a³, radicand q/a) or case-4 (3r³ = qs², radicand
    −r/s) product of the reachable shape with the given radicand and a
    random e1 row (g, h, k)."""
    g, h, k = (rand_rat(rng) for _ in range(3))
    if case == 2:
        a = rand_rat(rng, nonzero=True)
        q = a * radicand
        return FamilyCoordinates(g, a, q, h, F(0), -a, k, -3 * a ** 3 / q ** 2,
                                 F(0)).as_product()
    s = rand_rat(rng, nonzero=True)
    r = -s * radicand
    return FamilyCoordinates(g, F(0), 3 * r ** 3 / s ** 2, h, r, F(0), k, s,
                             -r).as_product()


def test_minus_square_radicands_certify_across_cases_2_and_4():
    # the quarter-turn (x, y) -> (-y, x) carries the case-2 shape onto the
    # case-4 one, and flips the sign of the radicand
    rng = random.Random(20)
    landed = set()
    for _ in range(100):
        case = rng.choice((2, 4))
        radicand = -F(rng.randint(1, 5), rng.randint(1, 3)) ** 2
        out = classify(A3, reachable_product(rng, case, radicand))
        assert isinstance(out, Certificate), (case, radicand, out)
        assert out.validate()
        landed.add((case, out.family.id))
    assert {family for case, family in landed if case == 2} <= {"T13", "T14", "T15", "T16"}
    assert {family for case, family in landed if case == 4} <= {"T5", "T6", "T7", "T8"}
    assert {case for case, _ in landed} == {2, 4}

    p = FamilyCoordinates(*map(F, (0, -1, 1, 0, 0, 1, 0, 3, 0))).as_product()
    out = classify(A3, p)
    assert out.family == FamilyInstance.make("T13", gamma=-1)
    assert out.witness == AutoMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]])


def test_quarter_turn_keeps_the_discriminant_reason():
    # radicand q/a = -1 but q²s = 5 ≠ -3a³, and the discriminant of the
    # quotient cubic is not a square, so it matches no table cubic: the
    # reason is neither "splits" nor "irreducible"
    p = FamilyCoordinates(*map(F, (0, 1, -1, 0, 0, -1, 0, 5, 0))).as_product()
    out = normalize(p)
    assert out == Unclassified(
        f"{DISCRIMINANT_REASON}: not isomorphic to any canonical table over the rationals")


#: the SL2 blocks with entries in [-2, 2]
SMALL_SL2 = [(b11, b12, b21, b22) for b11 in range(-2, 3) for b12 in range(-2, 3)
             for b21 in range(-2, 3) for b22 in range(-2, 3) if b11 * b22 - b12 * b21 == 1]


def test_needs_extension_has_no_certified_image_on_a_small_grid():
    # a certified image under diag(1, B) would give the input a witness too
    rng = random.Random(21)
    radicands = [sign * F(n, d) for sign in (1, -1) for n in range(1, 6) for d in (1, 2, 3)]
    seen = 0
    for _ in range(40):
        case, radicand = rng.choice((2, 4)), rng.choice(radicands)
        p = reachable_product(rng, case, radicand)
        out = classify(A3, p)
        if not isinstance(out, NeedsExtension):
            continue
        assert rational_root(radicand, 2) is None and rational_root(-radicand, 2) is None
        seen += 1
        for b11, b12, b21, b22 in SMALL_SL2:
            block = AutoMatrix.from_rows([[1, 0, 0], [0, b11, b12], [0, b21, b22]])
            image = classify(A3, transport_product(p, block))
            assert not isinstance(image, Certificate), (p, block, image)
    assert seen >= 10


# --- the shift determinant and the finisher ---------------------------------------

def cleared(co: FamilyCoordinates) -> tuple[int, ...]:
    """The integer read of the reduction, (D, g, a, q, h, r, w, k, s, t), of
    the product with the coordinates ``co``."""
    from tpl3.algebra import _cleared_coordinates

    return _cleared_coordinates(co.as_product())


def shift_determinant(g, a, q, h, r, k, s):
    from tpl3.classify import _shift_determinant

    return _shift_determinant(cleared(FamilyCoordinates(g, a, q, h, r, -a, k, s, -r)))


def singular_k(g, a, q, h, r, s):
    # D is g·(a·s − r²) + a·h·r + q·h·s − (a² + q·r)·k
    return (g * (a * s - r * r) + a * h * r + q * h * s) / (a * a + q * r)


def in_case_coordinates(rng: random.Random, case: int):
    # (g, a, q, h, r, k, s) under the case's conditions; w = −a and t = −r
    g, h, k = (rand_rat(rng) for _ in range(3))
    if case in (1, 2):
        a, s, r = rand_rat(rng, nonzero=True), rand_rat(rng, nonzero=True), F(0)
        q = F(0) if case == 1 else rand_rat(rng, nonzero=True)
    else:
        r, q, a = rand_rat(rng, nonzero=True), rand_rat(rng, nonzero=True), F(0)
        s = F(0) if case == 3 else rand_rat(rng, nonzero=True)
    return [g, a, q, h, r, k, s]


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_shift_determinant_matches_the_residual_oracle(case):
    # D = 0 exactly when the case's shift residual in conftest vanishes;
    # half the draws are forced singular by solving D = 0 for k
    rng = random.Random(f"shift-determinant:{case}")
    singular = 0
    for trial in range(2000):
        co = in_case_coordinates(rng, case)
        if trial % 2:
            g, a, q, h, r, _, s = co
            co[5] = singular_k(g, a, q, h, r, s)
        g, a, q, h, r, k, s = co
        p = FamilyCoordinates(g, a, q, h, r, -a, k, s, -r).as_product()
        key = dispatch_key(p)
        assert key[0] == case
        assert (shift_determinant(*co) == 0) == key[1], co
        singular += key[1]
    assert singular >= 1000


def test_singular_shift_determinant_survives_automorphisms():
    # on products with e1·A = 0 (a + w = r + t = 0), every automorphism of
    # [e1,e2,e3] = e1 keeps the product in that set and keeps D = 0 or not
    rng = random.Random(23)
    singular = 0
    for trial in range(2000):
        g, a, q, h, r, k, s = (rand_rat(rng) for _ in range(7))
        if trial % 2 and a * a + q * r != 0:
            k = singular_k(g, a, q, h, r, s)
        p = FamilyCoordinates(g, a, q, h, r, -a, k, s, -r).as_product()
        moved = family_coordinates(transport_product(p, rand_a3_automorphism(rng)))
        assert moved.w == -moved.a and moved.t == -moved.r
        was_singular = shift_determinant(g, a, q, h, r, k, s) == 0
        assert (shift_determinant(moved.g, moved.a, moved.q, moved.h, moved.r, moved.k,
                                  moved.s) == 0) == was_singular
        singular += was_singular
    assert singular >= 900


def singular_route_product(rng: random.Random, case: int, pattern: str) -> CommProduct:
    """A case-2 or case-4 product of the reachable shape, of subcase
    ``pattern``, with D = 0 and a radicand ± a rational square."""
    while True:
        radicand = rng.choice((1, -1)) * F(rng.randint(1, 4), rng.randint(1, 3)) ** 2
        co = family_coordinates(reachable_product(rng, case, radicand))
        g, a, q, h, r, k, s = co.g, co.a, co.q, co.h, co.r, co.k, co.s
        g, h = (F(0) if pattern == "a" else g), (F(0) if pattern == "b" else h)
        if pattern == "c":
            # D is linear in h, with coefficient a·r + q·s ≠ 0 on both shapes
            k, h = F(0), -g * (a * s - r * r) / (a * r + q * s)
        else:
            k = singular_k(g, a, q, h, r, s)
        p = FamilyCoordinates(g, a, q, h, r, -a, k, s, -r).as_product()
        if detect_case(p) == CaseId(case, pattern):
            return p


def test_finisher_never_fails(monkeypatch):
    # every (family, c) the finisher picks has exactly one witness: the
    # solve never returns None on automorphism images of all 16 tables, nor
    # on the singular T5/T6 and T13/T15 routes in every subcase
    module = importlib.import_module("tpl3.classify")
    original = module._solve_witness
    solved = []

    def counting(*args):
        out = original(*args)
        solved.append(out)
        return out

    monkeypatch.setattr(module, "_solve_witness", counting)
    rng = random.Random(24)
    # images under the witness shape stay in their case; the quarter turn
    # moves them across cases 1 ↔ 3 and 2 ↔ 4, onto the block route
    quarter_turn = AutoMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    for fam in FAMILY_IDS:
        inst = instantiate_family(FamilyInstance.make(fam, **draw_family_params(fam, rng)))
        for _ in range(6):
            image = transport_product(inst, scaled_shift_witness(rng))
            for p in (image, transport_product(image, quarter_turn)):
                out = classify(A3, p)
                assert isinstance(out, Certificate), (fam, out)
    for case in (2, 4):
        for pattern in "abcd":
            for _ in range(10):
                out = classify(A3, singular_route_product(rng, case, pattern))
                assert isinstance(out, Certificate), (case, pattern, out)
                assert out.family.id in {"T5", "T6", "T13", "T15"}
    assert len(solved) >= 16 * 6 * 2 + 80
    assert None not in solved


@pytest.mark.parametrize("table", [IN_CASE, SPLIT_RESCUE], ids=["in-case", "split-rescue"])
def test_missing_witness_is_an_internal_error(monkeypatch, table):
    module = importlib.import_module("tpl3.classify")
    monkeypatch.setattr(module, "_solve_witness", lambda *args: None)
    with pytest.raises(RuntimeError, match="internal error"):
        classify(A3, product_from(table))


def test_conductor_seven_cubic_gets_the_cubic_field_reason():
    # with x = X + Y/3 the quotient cubic x³ − (7/3)·xy² − (7/27)·y³ is
    # X³ + X²Y − 2XY² − Y³, of discriminant 49: it generates the cyclic
    # cubic field of conductor 7, and h₂, of discriminant 81, that of
    # conductor 9, so no block matches it onto a table cubic
    p = FamilyCoordinates(*map(F, (1, 0, 1, 2, F(7, 9), 0, 3, F(7, 27), F(-7, 9)))).as_product()
    assert detect_case(p) == CaseId(4, "d")
    assert normalize(p) == Unclassified(
        f"{FIELD_REASON}: not isomorphic to any canonical table over the rationals")


# --- the coupling gate ------------------------------------------------------------

PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def test_coupling_gate_is_the_solved_family_shape():
    # the nine coordinate products satisfy the coupling identity and span a
    # space as large as the whole compatible-product space, so the solved
    # family is exactly that space
    units = [FamilyCoordinates(*(F(int(i == j)) for j in range(9))).as_product()
             for i in range(9)]
    for p in units:
        assert check_transposed_leibniz(A3, p).passed
    flat = Matrix.from_rows([[c for pair in PAIRS for c in p.basis_product(*pair)]
                             for p in units])
    assert rank(flat) == 9 == tp_product_space(A3).dim

    # hence on seeded perturbations the identity holds exactly when the
    # solved-family shape does
    rng = random.Random(404)
    inside = outside = 0
    for trial in range(200):
        p = rand_family_product(rng)
        if trial % 4:
            table = dict(p.table)
            pair = PAIRS[rng.randrange(6)]
            bump = Vector.unit(3, rng.randint(1, 3)).scale(rand_rat(rng, nonzero=True))
            table[pair] = table.get(pair, Vector.zero(3)) + bump
            p = CommProduct(3, table)
        try:
            family_coordinates(p)
            in_family = True
        except ShapeMismatch:
            in_family = False
        assert check_transposed_leibniz(A3, p).passed == in_family
        inside += in_family
        outside += not in_family
    assert inside >= 60 and outside >= 60


def test_classify_runs_coupling_check_only_outside_family(monkeypatch):
    module = importlib.import_module("tpl3.classify")
    original = module.check_transposed_leibniz
    calls = []

    def recording(b, p):
        report = original(b, p)
        calls.append((p, report))
        return report

    monkeypatch.setattr(module, "check_transposed_leibniz", recording)
    assert isinstance(classify(A3, product_from(IN_CASE)), Certificate)
    assert isinstance(classify(A3, CommProduct.zero(3)), Unclassified)
    assert calls == []

    outside = CommProduct(3, {(2, 3): Vector.unit(3, 2)})
    out = classify(A3, outside)
    assert [p for p, _ in calls] == [outside]
    assert out == NotTransposedPoisson(calls[0][1])
    assert out.report is calls[0][1]


def test_classify_wrong_dimension_raises():
    with pytest.raises(DimensionMismatch):
        classify(A3, CommProduct.zero(2))
    with pytest.raises(DimensionMismatch):
        classify(A3, CommProduct(2, {(1, 2): Vector.unit(2, 1)}))


# --- the witness solve -------------------------------------------------------------

def oracle_witness_system(co, c, family_id, primary):
    """The affine system of the two-attempt witness solve below."""
    names = FAMILY_PARAMS[family_id]
    two_param = len(names) == 2

    def e1_targets(z):
        params = {names[0]: primary}
        if two_param:
            params[names[1]] = z
        inst = family_coordinates(instantiate_family(FamilyInstance.make(family_id, **params)))
        return inst.g, inst.h, inst.k

    g0, h0, k0 = e1_targets(F(0))
    if two_param:
        g1, h1, k1 = e1_targets(F(1))
        gz, hz, kz = g1 - g0, h1 - h0, k1 - k0
    else:
        gz = hz = kz = F(0)
    c2 = c * c
    rows = [
        [co.g, co.a, co.q, -gz * c2],
        [co.h, co.r, -co.a, -hz],
        [co.k, co.s, -co.r, -kz / c2],
    ]
    rhs = [g0 * c2, h0, k0 / c2]
    if not two_param:
        rows = [row[:3] for row in rows]
    return rows, rhs


def oracle_solve_witness(co, c, family_id, primary):
    """Reference witness solve: pin u = 1, then fall back to the free
    system and lift along a kernel vector that moves u."""
    rows, rhs = oracle_witness_system(co, c, family_id, primary)
    two_param = len(rows[0]) == 4
    ncols = len(rows[0])

    def attempt(extra_pin):
        sys_rows = list(rows)
        sys_rhs = list(rhs)
        if extra_pin:
            pin = [F(0)] * ncols
            pin[0] = F(1)
            sys_rows.append(pin)
            sys_rhs.append(F(1))
        return oracle_solve_affine(Matrix.from_rows(sys_rows), Vector(sys_rhs))

    try:
        particular, _ = attempt(extra_pin=True)
    except Infeasible:
        try:
            particular, kernel = attempt(extra_pin=False)
        except Infeasible:
            return None
        if particular[0] == 0:
            lift = next((v for v in kernel if v[0] != 0), None)
            if lift is None:
                return None
            particular = particular + lift.scale((1 - particular[0]) / lift[0])
    u, x, y = particular[0], particular[1], particular[2]
    z = particular[3] if two_param else None
    if u == 0:
        return None
    return u, x, y, z


#: the shift systems the one witness solve covers, by the scalar equation
#: that row 0 of the adjugate leaves: a regular shift matrix (D ≠ 0) with
#: one parameter, with the two-parameter lift or with a kernel that fixes
#: u, and a singular one (D = 0); every one has the minor a·s − r² ≠ 0,
#: and a zero minor raises ``ValueError``
SOLVE_BRANCHES = {"D ≠ 0, one parameter", "D ≠ 0, two-parameter lift",
                  "D ≠ 0, kernel fixes u (z = 0)", "D = 0, a·s − r² ≠ 0"}


def witness_system_kinds(co, c, family_id, primary):
    """How the witness system decides the e1 scaling u, and which kind of
    ``SOLVE_BRANCHES`` it is, if any."""
    rows, rhs = oracle_witness_system(co, c, family_id, primary)
    shifts = Matrix.from_rows([row[:3] for row in rows])
    if determinant(shifts) == 0:
        minor = determinant(Matrix.from_rows([row[1:3] for row in rows[1:]]))
        kinds = {"D = 0, a·s − r² ≠ 0" if minor else "D = 0, a·s − r² = 0"}
    elif len(rows[0]) == 3:
        kinds = {"D ≠ 0, one parameter"}
    else:
        # the kernel is the line (−M⁻¹·σ, 1) for the z column σ
        moved_u = oracle_solve_affine(shifts, Vector([row[3] for row in rows]))[0][0] != 0
        kinds = {"D ≠ 0, two-parameter lift" if moved_u else "D ≠ 0, kernel fixes u (z = 0)"}
    if len(rows[0]) == 4:
        kinds.add("two-parameter")
    try:
        particular, kernel = oracle_solve_affine(Matrix.from_rows(rows), Vector(rhs))
    except Infeasible:
        return kinds | {"infeasible"}
    if all(row[0] == 0 for row in rows):
        return kinds | {"u free"}
    if any(v[0] != 0 for v in kernel):
        return kinds | {"u pivot moved by the kernel"}
    if particular[0] == 0:
        return kinds | {"u = 0"}
    return kinds | {"u fixed at 1" if particular[0] == 1 else "u fixed, not 1"}


def zero_minor(co: FamilyCoordinates) -> bool:
    """Whether a·s = r², where the witness solve raises ``ValueError``."""
    return co.a * co.s == co.r * co.r


def solve_witness(co, c, family_id, primary):
    """``_solve_witness`` on the integer read of ``co``, with its shift
    determinant."""
    from tpl3.classify import _shift_determinant, _solve_witness

    ints = cleared(co)
    return _solve_witness(ints, c, family_id, primary, _shift_determinant(ints))


def coords(**nonzero) -> FamilyCoordinates:
    return FamilyCoordinates(**{name: F(nonzero.get(name, 0)) for name in "gaqhrwkst"})


#: two-parameter systems with D ≠ 0 and a·s − r² ≠ 0 whose slope row 0 of
#: the adjugate annihilates, so z = 0 and the system fixes u: nonzero onto
#: T4 and T12, 0 onto T2 and T10
FIXED_U_SYSTEMS = [
    (coords(g=1, a=1, s=3), F(1), "T4", F(1)),
    (coords(g=1, a=1, s=3), F(1), "T2", F(1)),
    (coords(g=1, q=-3, r=1, s=1), F(1), "T12", F(1)),
    (coords(g=1, q=-3, r=1), F(1), "T10", F(1)),
]


def test_solve_witness_matches_two_attempt_oracle():
    systems = [
        (coords(a=1, w=-1, s=-3), F(1), "T1", F(1)),        # u free
        (coords(g=1, a=1), F(2), "T1", F(1)),               # zero minor: raises
        (coords(g=1, k=-3), F(1), "T6", F(2)),              # zero minor: raises
        (coords(g=1, a=1, w=-1, s=-3), F(1), "T1", F(1)),   # u fixed at 0
        (coords(), F(1), "T3", F(1)),                       # zero minor: raises
        (coords(g=1, a=1, w=-1, k=3, s=-3), F(1), "T2", F(1)),  # two parameters
        *FIXED_U_SYSTEMS,
    ]
    rng = random.Random(2718)
    for _ in range(400):
        co = FamilyCoordinates(*(rand_rat(rng) if rng.random() < 0.5 else F(0)
                                 for _ in range(9)))
        systems.append((co, rand_rat(rng, nonzero=True), FAMILY_IDS[rng.randrange(16)],
                        rand_rat(rng, nonzero=True)))
    seen = Counter()
    for args in systems:
        if zero_minor(args[0]):
            with pytest.raises(ValueError, match="a·s − r²"):
                solve_witness(*args)
            seen["zero minor"] += 1
            continue
        assert solve_witness(*args) == oracle_solve_witness(*args), args
        seen.update(witness_system_kinds(*args))
    assert {"u free", "u pivot moved by the kernel", "u fixed, not 1", "u = 0",
            "infeasible", "two-parameter"} <= set(seen)
    assert SOLVE_BRANCHES <= set(seen), seen
    assert seen["D = 0, a·s − r² ≠ 0"] >= 20 and seen["zero minor"] >= 20, seen


def test_solve_witness_matches_the_dense_oracle_on_witness_systems():
    rng = random.Random(4451)
    systems = []
    for i in range(640):
        density = (0.3, 0.6, 1)[i % 3]
        co = FamilyCoordinates(*(rand_rat(rng) if rng.random() < density else F(0)
                                 for _ in range(9)))
        systems.append((co, rand_rat(rng, nonzero=True), FAMILY_IDS[i % 16],
                        rand_rat(rng, nonzero=True)))
    seen, branches = set(), Counter()
    for args in systems + FIXED_U_SYSTEMS:
        co, _, family_id, _ = args
        rows, rhs = oracle_witness_system(*args)
        ncols = len(rows[0])
        seen |= {family_id, f"{ncols - 2} parameter(s)"}
        try:
            _, kernel = oracle_solve_affine(Matrix.from_rows(rows), Vector(rhs))
        except Infeasible:
            seen.add("infeasible")
        else:
            seen.add(f"kernel dimension {len(kernel)}")
        if zero_minor(co):
            with pytest.raises(ValueError, match="a·s − r²"):
                solve_witness(*args)
            branches["zero minor"] += 1
            continue
        assert solve_witness(*args) == oracle_solve_witness(*args), args
        kinds = witness_system_kinds(*args)
        seen |= kinds
        branches.update(kinds & SOLVE_BRANCHES)
    assert set(FAMILY_IDS) | {"1 parameter(s)", "2 parameter(s)", "infeasible",
                              "kernel dimension 0", "kernel dimension 1"} <= seen, seen
    assert SOLVE_BRANCHES <= set(branches), branches
    assert branches["D = 0, a·s − r² ≠ 0"] >= 20 and branches["zero minor"] >= 20, branches


def test_only_singular_shift_systems_reach_the_elimination(monkeypatch):
    # row 0 of the adjugate and Cramer's rule on the minor a·s − r² solve
    # every witness system of the seed-1 classify-mix inputs, regular or
    # singular, so no witness solve runs the elimination's forward pass
    module = importlib.import_module("tpl3.classify")
    linalg = importlib.import_module("tpl3.linalg")
    echelon, solve_witness = linalg._echelon, module._solve_witness
    eliminations, calls = [], []

    def counting_rows(rows):
        eliminations.append(rows)
        return echelon(rows)

    def recording(co, *args):
        # co is the integer read (D, g, a, q, h, r, w, k, s, t)
        before = len(eliminations)
        out = solve_witness(co, *args)
        _, g, a, q, h, r, _, k, s, _ = co
        shifts = Matrix.from_rows([[g, a, q], [h, r, -a], [k, s, -r]])
        calls.append((determinant(shifts) != 0, len(eliminations) - before))
        return out

    monkeypatch.setattr(linalg, "_echelon", counting_rows)
    monkeypatch.setattr(module, "_solve_witness", recording)
    for p in classify_mix_products(1, 300):
        classify(A3, p)
    assert set(calls) == {(True, 0), (False, 0)}


def test_case_condition_sets_have_a_nonzero_minor():
    # the one witness solve divides by the minor a·s − r²: sets 1–2 have
    # r = 0 and a·s ≠ 0, sets 3–4 have a = 0 and r ≠ 0, so every tuple
    # _case_of accepts has a·s ≠ r², also after a candidate block's move
    from tpl3.algebra import _cleared_coordinates
    from tpl3.classify import _candidate_blocks
    from tpl3.families import _case_of

    def nonzero_minor(co):
        _, _, a, _, _, r, _, _, s, _ = co
        return a * s != r * r

    rng = random.Random(1729)
    accepted = Counter()
    while min(accepted.get((case, sub), 0) for case in range(1, 5) for sub in "abcd") < 70:
        # each constant zero half the time, and the set relations w = −a and
        # t = −r three times in four
        g, a, q, h, r, k, s = (0 if rng.random() < 0.5 else rng.randint(-9, 9)
                               for _ in range(7))
        w = -a if rng.random() < 0.75 else rng.randint(-9, 9)
        t = -r if rng.random() < 0.75 else rng.randint(-9, 9)
        case = _case_of(g, a, q, h, r, w, k, s, t)
        if case is not None:
            assert a * s != r * r, (g, a, q, h, r, w, k, s, t)
            accepted[case.case, case.subcase] += 1
    assert sum(accepted.values()) >= 1000, accepted

    in_case = moved_in_case = 0
    for p in corpus():
        try:
            co = _cleared_coordinates(p)
        except ShapeMismatch:
            continue
        if _case_of(*co[1:]) is None:
            continue
        assert nonzero_minor(co), co
        in_case += 1
        for block in _candidate_blocks(co)[0]:
            if block is None:
                continue
            (b11, b12), (b21, b22) = block_matrix(block).row_lists()
            block_map = AutoMatrix.from_rows([[1, 0, 0], [0, b11, b12], [0, b21, b22]])
            moved = _cleared_coordinates(transport_product(p, block_map))
            if _case_of(*moved[1:]) is not None:
                assert nonzero_minor(moved), moved
                moved_in_case += 1
    assert in_case >= 100 and moved_in_case >= 100, (in_case, moved_in_case)


def test_split_route_complete_diagnostics():
    # pair slope 5: the quotient splits as {inf, 5, -5} but none of the
    # orderings onto a canonical root triple has a square determinant, so
    # no rational witness exists at all; the scaling-route radical stands
    p = product_from({(2, 2): [0, 1, 0], (2, 3): [0, 0, -1], (3, 3): [0, -75, 0]})
    assert normalize(p) == NeedsExtension(radicand=F(1, 25), degree=4)

    # split case-2 quotient with roots {1, 2, -2/3}: every matching has
    # determinant class 5, hence provably unclassifiable over the rationals
    p = product_from({(2, 2): [0, F(7, 3), 3], (2, 3): [0, 0, F(-7, 3)],
                      (3, 3): [0, -4, 0]})
    out = normalize(p)
    assert isinstance(out, Unclassified)
    assert "splits over the rationals" in out.reason

    # reachable T3-shaped quotient whose zero e1 components cannot be
    # completed (the e1 shift residual separates it from every table)
    p = product_from({(2, 2): [0, 1, 0], (2, 3): [0, 0, -1], (3, 3): [0, -108, 0]})
    assert normalize(p) == NeedsExtension(radicand=F(1, 36), degree=4)


def test_family_overlaps_are_real_and_documented():
    # the sixteen tables are not pairwise non-isomorphic: explicit rational
    # witnesses glue several of them
    swap = AutoMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    a = F(5, 3)
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=a))
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=a))
    assert transport_product(t1, swap) == t9

    shift = AutoMatrix.from_rows([[1, 0, 0], [F(1, 3), 1, 0], [1, 0, 1]])
    t4 = instantiate_family(FamilyInstance.make("T4", alpha=F(2), theta=F(1)))
    t2 = instantiate_family(FamilyInstance.make("T2", alpha=F(2), theta=F(1) + F(2) / 3))
    assert transport_product(t4, shift) == t2

    shift15 = AutoMatrix.from_rows([[1, 0, 0], [1, 1, 0], [-1, 0, 1]])
    t15 = instantiate_family(FamilyInstance.make("T15", gamma=F(3)))
    t13 = instantiate_family(FamilyInstance.make("T13", gamma=F(3)))
    assert transport_product(t15, shift15) == t13


def test_fingerprint_examples_and_invariance():
    assert fingerprint(A3, CommProduct.zero(3)) == (6, 0, 3, 0, 0)
    rng = random.Random(77)
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    fp_t1 = fingerprint(A3, t1)
    phi1 = CANONICAL_AUTOMORPHISM["1-a"]
    assert fingerprint(A3, transport_product(t1, phi1)) == fp_t1
    # isomorphic tables cannot be separated: T9 arises from T1 by a rational
    # swap, so the fingerprints agree ("indistinguishable by fingerprint")
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    assert fingerprint(A3, t9) == fp_t1
    for _ in range(20):
        p = rand_family_product(rng)
        m = rand_a3_automorphism(rng)
        assert fingerprint(A3, p) == fingerprint(
            transport_bracket(A3, m), transport_product(p, m))


def test_certificate_soundness_random():
    rng = random.Random(13)
    seen = 0
    for _ in range(150):
        p = rand_family_product(rng)
        out = classify(A3, p)
        if isinstance(out, Certificate):
            assert out.validate()
            seen += 1
        elif isinstance(out, NeedsExtension):
            assert out.degree in (2, 4)
            assert rational_root(out.radicand, out.degree) is None
        else:
            assert isinstance(out, Unclassified)
    # random products rarely satisfy the condition sets; just make sure the
    # loop exercised the certificate path at least once via family draws
    fam = FAMILY_IDS[rng.randrange(16)]
    inst = instantiate_family(FamilyInstance.make(fam, **draw_family_params(fam, rng)))
    assert isinstance(classify(A3, inst), Certificate)


def reference_rational_roots_of_cubic(c0, c1, c2, c3):
    # the root search before the discriminant gate: a divisor-by-divisor
    # search in Fraction arithmetic, then every distinctness check
    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return sorted(set(small) | {n // d for d in small})

    def quad_roots(a, b, c):
        s = rational_root(b * b - 4 * a * c, 2)
        if s is None or s == 0:
            return None
        return [((-b + s) / (2 * a), F(1)), ((-b - s) / (2 * a), F(1))]

    roots = []
    if c0 == 0:
        if c1 == 0:
            return None
        roots.append((F(1), F(0)))
        rest = quad_roots(c1, c2, c3)
        if rest is None:
            return None
        roots.extend(rest)
    else:
        den = math.lcm(c0.denominator, c1.denominator, c2.denominator, c3.denominator)
        a0, a1, a2, a3 = (int(c * den) for c in (c0, c1, c2, c3))
        g = math.gcd(math.gcd(a0, a1), math.gcd(a2, a3))
        a0, a1, a2, a3 = a0 // g, a1 // g, a2 // g, a3 // g
        first = F(0) if a3 == 0 else next(
            (cand for num in divisors(a3) for dd in divisors(a0)
             for cand in (F(num, dd), F(-num, dd))
             if ((a0 * cand + a1) * cand + a2) * cand + a3 == 0), None)
        if first is None:
            return None
        b1 = a1 + a0 * first
        rest = quad_roots(F(a0), b1, a2 + b1 * first)
        if rest is None or first in (r[0] for r in rest):
            return None
        roots.append((first, F(1)))
        roots.extend(rest)
    if len(set(roots)) != 3:
        return None
    return sorted(roots, key=lambda r: (r[1] == 0, r[0]))


def form_product(f, g):
    # binary forms as coefficient lists, highest power of x first
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def substitute(f, m):
    # f(a·x + b·y, c·x + d·y) for the cubic f and m = ((a, b), (c, d))
    (a, b), (c, d) = m
    out = [F(0)] * 4
    for k, coeff in enumerate(f):
        term = [coeff]
        for _ in range(3 - k):
            term = form_product(term, [a, b])
        for _ in range(k):
            term = form_product(term, [c, d])
        out = [x + y for x, y in zip(out, term)]
    return out


def cubic_discriminant(c0, c1, c2, c3):
    return (c1 * c1 * c2 * c2 - 4 * c0 * c2 ** 3 - 4 * c1 ** 3 * c3
            - 27 * c0 * c0 * c3 * c3 + 18 * c0 * c1 * c2 * c3)


def random_gl2(rng: random.Random):
    while True:
        m = ((rand_rat(rng), rand_rat(rng)), (rand_rat(rng), rand_rat(rng)))
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return m


def random_cubic(rng: random.Random, kind: int) -> list:
    def point():
        # a root (p:q) as the linear form q·x − p·y, (1:0) now and then
        if rng.random() < 0.15:
            return [F(0), F(-1)]
        p, q = rng.randint(-9, 9), rng.randint(1, 6)
        return [F(q), F(-p)]

    if kind == 0:   # random coefficients: mostly a non-square discriminant
        return [rand_rat(rng, lo=-30, hi=30, max_den=3) if rng.random() < 0.85 else F(0)
                for _ in range(4)]
    if kind == 1:   # three rational roots, repeated now and then
        f = form_product(form_product(point(), point()), point())
    elif kind == 2:  # a repeated root: zero discriminant
        line = point()
        f = form_product(form_product(line, line), point())
    elif kind == 3:  # x³ − 3xy² + y³ moved by GL2: square discriminant, irreducible
        f = substitute([F(1), F(0), F(-3), F(1)], random_gl2(rng))
    else:           # one rational root times an irreducible quadratic
        f = form_product(point(), [F(1), F(rng.randint(-3, 3)),
                                   F(rng.choice((-2, -3, 2, 3, 5, 7)))])
    scale = rand_rat(rng, nonzero=True)
    return [c * scale for c in f]


def big_sl2(rng: random.Random):
    # an SL2(ℤ) matrix with 10-digit a, b: b·c ≡ −1 (mod a) makes a·d − b·c = 1
    while True:
        a, b = rng.randint(10 ** 9, 10 ** 10 - 1), rng.randint(10 ** 9, 10 ** 10 - 1)
        if math.gcd(a, b) == 1:
            break
    c = a - pow(b, -1, a)
    d = (1 + b * c) // a
    assert a * d - b * c == 1 and max(c, d) < 10 ** 10
    return (F(a), F(b)), (F(c), F(d))


def reference_mobius_block(src, dst):
    # the block before the closed form: one 6×6 affine solve for M and the
    # scalings b, c in p1·M = d1, p2·M = b·d2, p3·M = c·d3
    (p1, p2, p3), (d1, d2, d3) = src, dst
    rows = [[p1[0], 0, p1[1], 0, 0, 0], [0, p1[0], 0, p1[1], 0, 0],
            [p2[0], 0, p2[1], 0, -d2[0], 0], [0, p2[0], 0, p2[1], -d2[1], 0],
            [p3[0], 0, p3[1], 0, 0, -d3[0]], [0, p3[0], 0, p3[1], 0, -d3[1]]]
    try:
        sol, _ = oracle_solve_affine(Matrix.from_rows(rows),
                                     Vector([d1[0], d1[1], 0, 0, 0, 0]))
    except Infeasible:
        return None
    det = sol[0] * sol[3] - sol[1] * sol[2]
    scale = rational_root(det, 2) if det != 0 else None
    if scale is None:
        return None
    return Matrix.from_rows([[sol[0] / scale, sol[1] / scale],
                             [sol[2] / scale, sol[3] / scale]])


#: the root triples of the split table cubics; the split table cubics, h₂
#: and its case-4 form as coefficient lists; the two reasons of the matcher
SPLIT_TARGETS = (
    ((F(1), F(0)), (F(1), F(1)), (F(-1), F(1))),
    ((F(1), F(0)), (F(2, 3), F(1)), (F(-2, 3), F(1))),
    ((F(0), F(1)), (F(1), F(1)), (F(-1), F(1))),
)
SPLIT_CUBICS = ([F(0), F(1), F(0), F(-1)], [F(0), F(9), F(0), F(-4)], [F(1), F(0), F(-1), F(0)])
H2, H4 = [F(1), F(-3), F(0), F(3)], [F(3), F(0), F(-3), F(1)]
SPLIT_REASON = ("the quotient cubic splits over the rationals but every root matching has "
                "a non-square determinant")
IRREDUCIBLE_REASON = ("the quotient cubic is irreducible over the rationals and every match "
                      "onto the case-2 and case-4 table cubics has a non-square determinant")
#: the reasons that stand when the quotient cubic matches no table cubic
DISCRIMINANT_REASON = ("the discriminant of the quotient cubic is not a nonzero rational "
                       "square, as that of every table cubic is")
FIELD_REASON = ("the quotient cubic is irreducible and generates a cubic field other than "
                "that of the case-2 and case-4 table cubics")


def cubic_coordinates(f, e1_row=(F(0), F(0), F(0))) -> FamilyCoordinates:
    # an in-family product whose quotient cubic q·x³ − 3a·x²y − 3r·xy² − s·y³ is f
    (c0, c1, c2, c3), (g, h, k) = f, e1_row
    return FamilyCoordinates(g, -c1 / 3, c0, h, -c2 / 3, c1 / 3, k, -c3, c2 / 3)


def matches(f, g):
    from tpl3.classify import _cubic_matches, _hessian_frame

    def frame(cubic):
        den = math.lcm(*(c.denominator for c in cubic))
        return _hessian_frame(tuple(int(c * den) for c in cubic))

    source = frame(f)
    return [] if source is None else [None if b is None else block_matrix(b)
                                      for b in _cubic_matches(source, frame(g))]


def moved_cubic(f, block):
    # transport by diag(1, B), B in SL2, moves the quotient cubic to f∘B⁻ᵀ
    (b11, b12), (b21, b22) = block.row_lists()
    return substitute(f, ((b22, -b21), (-b12, b11)))


def proportional(f, g):
    scale = next(x / y for x, y in zip(f, g) if y != 0)
    return scale != 0 and f == [scale * y for y in g]


def first_row_positive(block):
    lead = next(x for x in block.row_lists()[0] if x != 0)
    return block if lead > 0 else Matrix(2, 2, [-x for x in block.entries])


def test_cubic_root_finder_matches_reference():
    # the matcher finds split matches exactly when the reference root search
    # splits the cubic, and then they are the Möbius root matchings: every
    # ordering of its roots onto each split target, as a set and up to sign;
    # any other cubic matches no split target
    from tpl3.classify import _candidate_blocks
    rng = random.Random(59)
    seen = {"split c0 = 0": 0, "split c0 != 0": 0, "zero discriminant": 0,
            "non-square discriminant": 0, "square, irreducible": 0}
    for trial in range(2500):
        cubic = random_cubic(rng, trial % 5)
        blocks, reason = _candidate_blocks(cleared(cubic_coordinates(cubic)))
        roots = reference_rational_roots_of_cubic(*cubic)
        if roots is None:
            assert reason != SPLIT_REASON, cubic
            disc = cubic_discriminant(*cubic)
            if disc == 0:
                assert blocks == [], cubic
                seen["zero discriminant"] += 1
            elif rational_root(disc, 2) is None:
                assert blocks == [], cubic
                seen["non-square discriminant"] += 1
            elif trial % 5 == 3:
                assert reason == IRREDUCIBLE_REASON and len(blocks) == 6, cubic
                seen["square, irreducible"] += 1
            continue
        assert reason == SPLIT_REASON and len(blocks) == 18, cubic
        expected = {first_row_positive(block) for target in SPLIT_TARGETS
                    for perm in permutations(roots)
                    if (block := reference_mobius_block(perm, target)) is not None}
        assert {block_matrix(b) for b in blocks if b is not None} == expected, cubic
        seen["split c0 = 0" if cubic[0] == 0 else "split c0 != 0"] += 1
    assert min(seen.values()) >= 80, seen


def test_mobius_block_matches_reference():
    # the cubic with three random roots (every fourth with its linear forms
    # rescaled) against each split target: the matches with a square
    # determinant are the reference Möbius blocks over every root ordering,
    # up to sign
    rng = random.Random(61)
    found = 0
    for trial in range(500):
        slopes = set()
        while len(slopes) < 3:
            slopes.add(None if rng.random() < 0.1 else rand_rat(rng, lo=-9, hi=9))
        triple = [(F(1), F(0)) if s is None else (s, F(1)) for s in slopes]
        forms = [[y, -x] for x, y in triple]  # the root (x:y) as y·X − x·Y
        if trial % 4 == 0:
            forms = [[c * k for c in form] for form in forms
                     for k in (rand_rat(rng, nonzero=True),)]
        cubic = form_product(form_product(forms[0], forms[1]), forms[2])
        for target, target_cubic in zip(SPLIT_TARGETS, SPLIT_CUBICS):
            blocks = [b for b in matches(cubic, target_cubic) if b is not None]
            expected = {first_row_positive(block) for perm in permutations(triple)
                        if (block := reference_mobius_block(perm, target)) is not None}
            assert len(blocks) == len(expected) and set(blocks) == expected, (triple, target)
            found += len(blocks)
    assert 100 <= found <= 9000 - 100


def test_cubic_matcher_counts():
    # the matches onto a cubic are a coset of its stabiliser in PGL2(ℚ): one
    # orbit of 3 in h₂'s field (t³ − 3t + 1 included), none across fields,
    # 6 per split class; each block moves the cubic onto the target
    rng = random.Random(62)
    cyclic9 = (H2, H4, [F(1), F(0), F(-3), F(1)])
    cyclic7 = [F(1), F(1), F(-2), F(-1)]
    for _ in range(25):
        m = random_gl2(rng)
        for f in cyclic9:
            image = substitute(f, m)
            assert matches(image, SPLIT_CUBICS[0]) == []
            for target in (H2, H4):
                found = matches(image, target)
                assert len(found) == 3 and len({b is None for b in found}) == 1, (f, m)
                assert all(proportional(moved_cubic(image, b), target)
                           for b in found if b is not None)
        image = substitute(cyclic7, m)
        assert matches(image, H2) == [] and len(matches(image, cyclic7)) == 3
        for f in SPLIT_CUBICS:
            image = substitute(f, m)
            for target in SPLIT_CUBICS:
                found = matches(image, target)
                assert len(found) == 6
                assert all(proportional(moved_cubic(image, b), target)
                           for b in found if b is not None)
            assert matches(image, H2) == []
    # square and repeated-root discriminants are not frames
    assert matches([F(0), F(0), F(1), F(1)], H2) == []
    assert matches([F(1), F(-3), F(3), F(-1)], H2) == []


def test_cubic_matcher_blocks_move_the_cubic():
    # the roots (∞, 1, −1) onto themselves and onto (0, −1, 1): the identity
    # and the quarter-turn are matches; (∞, 1, −1) -> (0, 1, −1) has
    # determinant class −1, so it has no SL2 block
    inf_pm1, zero_pm1 = SPLIT_CUBICS[0], SPLIT_CUBICS[2]
    assert Matrix.identity(2) in matches(inf_pm1, inf_pm1)
    found = matches(inf_pm1, zero_pm1)
    assert Matrix.from_rows([[0, 1], [-1, 0]]) in found and None in found
    # transport by diag(1, B) moves the product's cubic exactly so
    p = cubic_coordinates(inf_pm1, (F(1), F(2), F(3))).as_product()
    for block in found:
        if block is not None:
            (b11, b12), (b21, b22) = block.row_lists()
            moved = family_coordinates(transport_product(p, AutoMatrix.from_rows(
                [[1, 0, 0], [0, b11, b12], [0, b21, b22]])))
            cubic = [moved.q, -3 * moved.a, -3 * moved.r, -moved.s]
            assert cubic == moved_cubic(inf_pm1, block)
            assert proportional(cubic, zero_pm1)


def test_cubic_matcher_big_split_roots():
    # split cubics with 20- to 40-digit roots: the matches are still the
    # Möbius root matchings
    from tpl3.classify import _candidate_blocks
    rng = random.Random(60)

    def big(digits):
        return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10 ** digits - 1)

    inf = (F(1), F(0))
    for trial in range(8):
        roots = set()
        if trial % 4 == 0:
            roots.add(inf)
        while len(roots) < 3:
            roots.add((F(big(rng.randint(20, 40)), abs(big(rng.randint(20, 40)))), F(1)))
        # the root (p:q) as the linear form q·x − p·y
        f = [F(rng.choice((-1, 1)) * abs(big(rng.randint(1, 30))), rng.randint(1, 10 ** 6))]
        for p, q in roots:
            f = form_product(f, [q, -p])
        blocks, reason = _candidate_blocks(cleared(cubic_coordinates(f)))
        assert reason == SPLIT_REASON and len(blocks) == 18
        expected = {first_row_positive(block) for target in SPLIT_TARGETS
                    for perm in permutations(roots)
                    if (block := reference_mobius_block(perm, target)) is not None}
        assert {block_matrix(b) for b in blocks if b is not None} == expected


def test_cubic_matcher_big_cyclic_cubics():
    # x³ − 3xy² + y³ moved by SL2(ℤ) maps with 10-digit entries keeps its
    # 3 + 3 matches onto h₂ and the case-4 form, with their determinant
    # classes; a case-2 image of h₂ built that way certifies
    from tpl3.classify import _candidate_blocks
    rng = random.Random(61)
    cubic = [F(1), F(0), F(-3), F(1)]
    blocks, reason = _candidate_blocks(cleared(cubic_coordinates(cubic)))
    assert reason == IRREDUCIBLE_REASON
    classes = [b is None for b in blocks]
    for _ in range(20):
        image = substitute(cubic, big_sl2(rng))
        assert cubic_discriminant(*image) == 81
        blocks, reason = _candidate_blocks(cleared(cubic_coordinates(image)))
        assert reason == IRREDUCIBLE_REASON and [b is None for b in blocks] == classes
        assert all(proportional(moved_cubic(image, block_matrix(b)), target)
                   for b, target in zip(blocks, [H2] * 3 + [H4] * 3) if b is not None)
    for _ in range(5):
        f = substitute(H2, big_sl2(rng))
        # y ↦ y + t·x with t = −c2/(3·c3) clears the xy² coefficient: case 2
        f = substitute(f, ((F(1), F(0)), (-f[2] / (3 * f[3]), F(1))))
        p = cubic_coordinates(f, (F(1), F(-2), F(3))).as_product()
        assert detect_case(p).case == 2
        out = classify(A3, p)
        assert isinstance(out, Certificate) and out.validate()


def off_shape_products(cubic, case):
    """Products inside the condition set ``case`` whose quotient cubic is
    cubic∘M for an integer M with entries in [−3, 3] and det M ∈ {1, 4, 9}."""
    products = []
    for m11, m12, m21, m22 in product(range(-3, 4), repeat=4):
        if m11 * m22 - m12 * m21 in (1, 4, 9):
            p = cubic_coordinates(substitute(cubic, ((F(m11), F(m12)), (F(m21), F(m22)))))
            detected = detect_case(p.as_product())
            if detected is not None and detected.case == case:
                products.append(p.as_product())
    return products


def test_irreducible_inputs_off_the_case_shape_certify():
    # the identity block reaches only q²s = −3a³ (case 2) or 3r³ = qs²
    # (case 4); the matches onto h₂ and its case-4 form reach every image
    # of square determinant class
    for cubic, case in ((H2, 2), (H4, 4)):
        products = off_shape_products(cubic, case)
        assert len(products) == 22
        for p in products:
            out = classify(A3, p)
            assert isinstance(out, Certificate), (p, out)
            assert out.validate()


def test_irreducible_diagnostic_names_the_class():
    # h₂∘[[−3, −2], [0, −1]] is a case-2 cubic off the reachable shape with
    # determinant class 3: every match onto h₂ or the case-4 form has a
    # non-square determinant, and the reason says so (not "splits")
    f = substitute(H2, ((F(-3), F(-2)), (F(0), F(-1))))
    p = cubic_coordinates(f).as_product()
    assert detect_case(p).case == 2
    assert normalize(p) == Unclassified(
        f"{IRREDUCIBLE_REASON}: not isomorphic to any canonical table over the rationals")


def test_classify_big_split_quotient_cubic():
    # the quotient cubic x³ − 3r·xy² − s·y³ splits as
    # (x − 1000003y)(x − 1000033y)(x + 2000036y): its roots have 7 digits, so
    # a divisor search on the constant term takes minutes
    r, s = F(1000036000399), F(-2000108001494003564)
    co = FamilyCoordinates(F(1), F(0), F(1), F(1), r, F(0), F(1), s, -r)
    assert classify(A3, co.as_product()) == Unclassified(
        "the quotient cubic splits over the rationals but every root "
        "matching has a non-square determinant: not isomorphic to any "
        "canonical table over the rationals")


def reference_fingerprint(b: TriBracket, p: CommProduct):
    # the fingerprint before the two-rank form: four dense matrices
    n = p.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    sym_rank = rank(Matrix.from_rows(
        [[p.basis_product(i, j)[t] for (i, j) in pairs] for t in range(n)]))
    stacked = Matrix.from_rows(
        [[p.basis_product(i, j)[t] for j in range(1, n + 1) for t in range(n)]
         for i in range(1, n + 1)])
    ann_dim = len(kernel_basis(stacked.transpose()))
    aa_dim = rank(Matrix.from_rows([list(p.basis_product(i, j)) for (i, j) in pairs]))
    lmul_rank = rank(Matrix.from_rows(
        [list(left_multiplication(p, i).entries) for i in range(1, n + 1)]))
    return (delta_derivations(DerivationQuery(b)).dim, sym_rank, ann_dim, aa_dim,
            lmul_rank)


def test_fingerprint_matches_reference():
    rng = random.Random(67)
    tuples = set()
    for trial in range(1000):
        n = 1 + trial % 5
        bracket = TriBracket(n, {
            tr: Vector([rand_rat(rng) if rng.random() < 0.5 else 0 for _ in range(n)])
            for tr in combinations(range(1, n + 1), 3) if rng.random() < 0.4})
        # products valued in a random subspace of dimension ≤ n, on a random
        # subset of pairs, so every rank and annihilator dimension occurs
        span = [Vector([rand_rat(rng) for _ in range(n)]) for _ in range(rng.randint(0, n))]
        table = {}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if span and rng.random() < 0.5:
                    table[(i, j)] = sum((v.scale(rand_rat(rng)) for v in span[1:]),
                                        span[0].scale(rand_rat(rng)))
        p = CommProduct(n, table)
        got = fingerprint(bracket, p)
        assert got == reference_fingerprint(bracket, p), (bracket, p)
        tuples.add(got)
    assert len(tuples) >= 50


def test_verify_paper_case_all():
    results = verify_all_cases(seed=3)
    assert len(results) == 16
    for case, report in results.items():
        assert report.passed, (case, report.violations)


def test_verify_paper_case_single_and_seeded():
    report = verify_paper_case("1-a", seed=7)
    assert report.passed
    again = verify_paper_case("1-a", seed=7)
    assert report == again
    for case in ALL_CASES:
        assert verify_paper_case(case, seed=11, draws=2).passed
