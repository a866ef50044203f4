"""Acceptance suite: one test per criterion, all arithmetic exact (zero
tolerance).  Each test prints a single pass line; run with ``pytest -v -s``
to see them."""

import random
from fractions import Fraction as F

from tpl3 import (ALL_CASES, CANONICAL_AUTOMORPHISM, CASE_FAMILY, FAMILY_IDS,
                  Certificate, CommProduct, DerivationQuery, FamilyInstance,
                  Matrix, NeedsExtension, Vector, a3_bracket,
                  a3_automorphism_check, check_commutative_associative,
                  check_fundamental_identity, check_transposed_leibniz,
                  classify, delta_derivations, draw_family_params,
                  eleven_equation_residuals, instantiate_family,
                  is_bracket_automorphism, normalize,
                  parse_document, rational_root, remark_associativity_residuals,
                  serialize_document, transport_product)
from tpl3.cli import run_command
from conftest import (FIXTURES, A3_PRODUCT_SPACE, dispatch_key, rand_rat,
                      scaled_shift_witness)
from oracles import left_multiplication

A3 = a3_bracket()


def done(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS: {text}")


def test_criterion_1_standard_bracket_axioms(capsys):
    code = run_command(["check", str(FIXTURES / "a3.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "skew-symmetry: PASS" in out
    assert "fundamental-identity: PASS" in out

    code = run_command(["check", str(FIXTURES / "fi_counterexample.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "(2, 4, 5, 2, 3)" in out
    report = check_fundamental_identity(parse_document(
        (FIXTURES / "fi_counterexample.json").read_bytes()).bracket)
    witnessed = [v for v in report.violations if v.witness == (2, 4, 5, 2, 3)]
    assert witnessed and witnessed[0].left == Vector.unit(5, 4)
    assert witnessed[0].right == Vector.zero(5)
    done(1, "standard bracket passes skew+fundamental identity; dim-5 "
            "counterexample fails at witness (e2,e4,e5,e2,e3)")


def test_criterion_2_derivation_space():
    space = delta_derivations(DerivationQuery(A3, F(1, 3)))
    assert space.dim == 6

    def solved_shape(m: Matrix) -> bool:
        return (m.entry(0, 1) == 0 and m.entry(0, 2) == 0
                and 2 * m.entry(0, 0) == m.entry(1, 1) + m.entry(2, 2))

    for m in space.basis:
        assert solved_shape(m)

    rng = random.Random(202)
    for _ in range(100):
        b22, b33 = rand_rat(rng), rand_rat(rng)
        member = Matrix.from_rows([
            [(b22 + b33) / 2, 0, 0],
            [rand_rat(rng), b22, rand_rat(rng)],
            [rand_rat(rng), rand_rat(rng), b33]])
        assert space.contains(member)
    rejected = 0
    while rejected < 100:
        entries = [rand_rat(rng) for _ in range(9)]
        candidate = Matrix(3, 3, entries)
        if solved_shape(candidate):
            continue
        assert not space.contains(candidate)
        rejected += 1
    done(2, "1/3-derivation space has dimension 6 with the solved shape; "
            "100 members accepted, 100 violators rejected")


def test_criterion_3_product_space():
    space = A3_PRODUCT_SPACE
    assert space.dim == 9
    half = F(1, 2)
    rng = random.Random(303)
    samples = list(space.basis)
    samples += [space.combination([rand_rat(rng) for _ in range(9)])
                for _ in range(50)]
    for p in samples:
        a, w = p.basis_product(2, 2)[1], p.basis_product(2, 3)[2]
        r, t = p.basis_product(2, 3)[1], p.basis_product(3, 3)[2]
        assert p.basis_product(1, 1).is_zero()
        assert p.basis_product(1, 2) == Vector([(a + w) * half, 0, 0])
        assert p.basis_product(1, 3) == Vector([(r + t) * half, 0, 0])
    done(3, "compatible-product space has dimension 9 and reproduces the "
            "solved e1-row relations on the whole span")


def test_criterion_4_family_tables():
    rng = random.Random(404)
    for fam in FAMILY_IDS:
        for _ in range(100):
            params = draw_family_params(fam, rng)
            inst = instantiate_family(FamilyInstance.make(fam, **params))
            report = check_transposed_leibniz(A3, inst)
            assert report.passed and not report.violations, (fam, params)
    done(4, "all sixteen families x 100 random parameter draws satisfy the "
            "coupling identity with zero violations")


def test_criterion_5_canonical_automorphisms():
    for case in ALL_CASES:
        phi = CANONICAL_AUTOMORPHISM[str(case)]
        e = phi.map.entry
        assert e(0, 0) != 0 and e(0, 1) == 0 and e(0, 2) == 0
        assert e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1) == 1
        assert a3_automorphism_check(phi)
        assert is_bracket_automorphism(A3, phi).passed
    done(5, "all sixteen canonical automorphism matrices pass the closed-form "
            "and structure-constant automorphism checks")


def test_criterion_6_fixed_points_and_residuals(capsys):
    rng = random.Random(606)
    for case in ALL_CASES:
        fam = CASE_FAMILY[str(case)]
        phi = CANONICAL_AUTOMORPHISM[str(case)]
        for _ in range(5):
            params = draw_family_params(fam, rng)
            inst = instantiate_family(FamilyInstance.make(fam, **params))
            assert transport_product(inst, phi) == inst, (fam, params)
            assert eleven_equation_residuals(inst, phi) == [0] * 11
    code = run_command(["verify-paper", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("case ") == 16 and "FAIL" not in out
    done(6, "each family is fixed by its canonical automorphism with zero "
            "residuals; the verification command exits 0 on all 16 subcases")


def test_criterion_7_left_multiplication_equivalence():
    rng = random.Random(707)
    deriv = delta_derivations(DerivationQuery(A3, F(1, 3)))
    space = A3_PRODUCT_SPACE
    in_span = off_span = 0
    for trial in range(200):
        if trial % 2 == 0:
            p = space.combination([rand_rat(rng) for _ in range(9)])
            in_span += 1
        else:
            # perturb a span element off the solved family
            p = space.combination([rand_rat(rng) for _ in range(9)])
            table = dict(p.table)
            key = ((1, 1), (1, 2), (2, 2))[rng.randrange(3)]
            bump = Vector.unit(3, rng.randint(1, 3))
            table[key] = table.get(key, Vector.zero(3)) + bump
            p = CommProduct(3, table)
            off_span += 1
        holds = check_transposed_leibniz(A3, p).passed
        derivations_hold = all(deriv.contains(left_multiplication(p, i))
                               for i in (1, 2, 3))
        assert holds == derivations_hold
    assert in_span == off_span == 100
    done(7, "coupling identity <=> all three left multiplications solve the "
            "1/3-derivation system, on 100 span + 100 perturbed samples")


def test_criterion_8_associativity_residuals():
    rng = random.Random(808)
    space = A3_PRODUCT_SPACE
    associative_seen = 0
    samples = [CommProduct.zero(3),
               CommProduct(3, {(2, 2): Vector([3, 0, 0])}),
               CommProduct(3, {(3, 3): Vector([F(-1, 2), 0, 0])}),
               CommProduct(3, {(2, 2): Vector([1, 0, 0]),
                               (2, 3): Vector([2, 0, 0]),
                               (3, 3): Vector([4, 0, 0])})]
    samples += [space.combination([rand_rat(rng) for _ in range(9)])
                for _ in range(196)]
    for p in samples:
        report = check_commutative_associative(p)
        if report.passed:
            associative_seen += 1
            assert remark_associativity_residuals(p) == [0] * 8
    assert associative_seen >= 4
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    assert remark_associativity_residuals(t1)[5] == 2
    done(8, f"associativity implies zero residuals on 200 family samples "
            f"({associative_seen} associative); displayed equation 6 residual "
            f"on the first family at parameter 1 equals 2")


def test_criterion_9_classifier_roundtrip():
    rng = random.Random(909)
    certificates = 0
    extensions = 0
    for trial in range(50):
        fam = FAMILY_IDS[rng.randrange(16)]
        params = draw_family_params(fam, rng)
        inst = instantiate_family(FamilyInstance.make(fam, **params))
        key = dispatch_key(inst)
        # the witness draw preserves the dispatch data; fully generic maps
        # legitimately move inputs across overlapping families or outside
        # the four condition sets entirely
        while True:
            m = scaled_shift_witness(rng)
            moved = transport_product(inst, m)
            if dispatch_key(moved) == key:
                break
        out = classify(A3, moved)
        if isinstance(out, Certificate):
            assert out.family.id == fam, (fam, params, m.map)
            assert out.validate()
            certificates += 1
        else:
            assert isinstance(out, NeedsExtension)
            assert out.degree in (2, 4)
            assert rational_root(out.radicand, out.degree) is None
            extensions += 1
    assert certificates + extensions == 50
    # extension diagnostics carry honest radicands (rechecked by powering)
    for p, expected in [
        (CommProduct(3, {(2, 2): Vector([0, 1, 0]), (2, 3): Vector([0, 0, -1]),
                         (3, 3): Vector([0, -6, 0])}),
         NeedsExtension(F(1, 2), 4)),
        (CommProduct(3, {(2, 2): Vector([0, 1, 2]), (2, 3): Vector([0, 0, -1]),
                         (3, 3): Vector([0, F(-3, 4), 0])}),
         NeedsExtension(F(2), 2)),
    ]:
        out = normalize(p)
        assert out == expected
        assert rational_root(out.radicand, out.degree) is None
    done(9, f"50/50 transported instances returned valid certificates with "
            f"the original family id ({certificates} certificates, "
            f"{extensions} extensions); radicand diagnostics verified")


def test_criterion_10_io_goldens_and_exit_codes(capsys):
    golden = [FIXTURES / "a3.json"] + [FIXTURES / f"t{i}.json" for i in range(1, 17)]
    for path in golden:
        data = path.read_bytes()
        doc = parse_document(data)
        assert serialize_document(doc.bracket, doc.product, doc.meta) == data, path.name

    expectations = [
        (["classify", str(FIXTURES / "t1.json")], 0),
        (["check", str(FIXTURES / "fi_counterexample.json")], 1),
        (["classify", str(FIXTURES / "not_tp.json")], 1),
        (["check", str(FIXTURES / "malformed.json")], 2),
        (["frobnicate"], 2),
        (["classify", str(FIXTURES / "needs_extension.json")], 3),
        (["classify", str(FIXTURES / "unclassified.json")], 3),
    ]
    for argv, expected in expectations:
        code = run_command(argv)
        capsys.readouterr()
        assert code == expected, argv
    done(10, "17 golden fixtures round-trip byte-identically; exit codes "
             "0/1/2/3 verified on one instance of each diagnostic class")
