import random
from fractions import Fraction as F

import pytest

from tpl3 import (ALL_CASES, CASE_FAMILY, FAMILY_IDS, CaseId,
                  CommProduct, FamilyInstance, Vector, a3_bracket,
                  check_transposed_leibniz, detect_case, draw_family_params,
                  family_coordinates, instantiate_family)
from conftest import rand_family_product

A3 = a3_bracket()


def test_instantiate_t1():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=F(3)))
    assert t1 == CommProduct(3, {
        (2, 2): Vector([0, 3, 0]),
        (2, 3): Vector([0, 0, -3]),
        (3, 3): Vector([0, -9, 0]),
    })
    assert instantiate_family(FamilyInstance.make("T1", alpha=0)).is_zero()


def test_instantiate_t16():
    t16 = instantiate_family(FamilyInstance.make("T16", gamma=F(1), xi=F(3)))
    assert t16 == CommProduct(3, {
        (2, 2): Vector([-6, 0, -3]),
        (2, 3): Vector([3, -1, 0]),
        (3, 3): Vector([-2, 1, 1]),
    })


def test_family_param_validation():
    with pytest.raises(ValueError):
        FamilyInstance.make("T17", alpha=1)
    with pytest.raises(ValueError):
        FamilyInstance.make("T1", gamma=1)
    with pytest.raises(ValueError):
        FamilyInstance.make("T2", alpha=1)  # missing theta


def test_case_id_parse():
    assert str(CaseId.parse("2-c")) == "2-c"
    with pytest.raises(ValueError):
        CaseId.parse("5-a")
    with pytest.raises(ValueError):
        CaseId.parse("1a")
    # the subcase is one letter a..d, not a substring of "abcd"
    for text in ("1-ab", "1-", "2-bc", "4-abcd", "3-e"):
        with pytest.raises(ValueError, match="bad case id"):
            CaseId.parse(text)
    for subcase in ("", "ab", "bcd"):
        with pytest.raises(ValueError, match="bad case id"):
            CaseId(1, subcase)


def test_case_family_map():
    assert CASE_FAMILY["1-a"] == "T1"
    assert CASE_FAMILY["2-d"] == "T8"
    assert CASE_FAMILY["4-c"] == "T15"
    assert sorted(CASE_FAMILY.values()) == sorted(FAMILY_IDS)


def test_detect_case_examples():
    t1 = instantiate_family(FamilyInstance.make("T1", alpha=1))
    assert detect_case(t1) == CaseId(1, "a")
    t9 = instantiate_family(FamilyInstance.make("T9", gamma=1))
    assert detect_case(t9) == CaseId(3, "a")
    assert detect_case(CommProduct.zero(3)) is None


def test_detect_case_all_families():
    rng = random.Random(19)
    for case in ALL_CASES:
        fam = CASE_FAMILY[str(case)]
        for _ in range(25):
            params = draw_family_params(fam, rng)
            inst = instantiate_family(FamilyInstance.make(fam, **params))
            assert detect_case(inst) == case, (fam, params)


def test_families_satisfy_coupling_identity():
    rng = random.Random(20)
    for fam in FAMILY_IDS:
        for _ in range(100):
            params = draw_family_params(fam, rng)
            inst = instantiate_family(FamilyInstance.make(fam, **params))
            report = check_transposed_leibniz(A3, inst)
            assert report.passed and not report.violations, (fam, params)


def test_condition_sets_pairwise_exclusive():
    # the four precondition sets cannot overlap: sets 1/2 force a != 0 while
    # 3/4 force a = 0, and within each pair q (resp. s) separates
    def predicates(co):
        base12 = co.r == 0 and co.t == 0 and co.w == -co.a and co.a != 0 and co.s != 0
        base34 = co.a == 0 and co.w == 0 and co.r == -co.t and co.r != 0 and co.q != 0
        return [base12 and co.q == 0, base12 and co.q != 0,
                base34 and co.s == 0, base34 and co.s != 0]

    rng = random.Random(21)
    samples = [rand_family_product(rng) for _ in range(300)]
    for fam in FAMILY_IDS:
        params = draw_family_params(fam, rng)
        samples.append(instantiate_family(FamilyInstance.make(fam, **params)))
    for p in samples:
        flags = predicates(family_coordinates(p))
        assert sum(flags) <= 1
        detected = detect_case(p)
        if detected is None:
            assert sum(flags) == 0
        else:
            assert flags[detected.case - 1]


def test_instance_str():
    inst = FamilyInstance.make("T8", alpha=F(1, 2), theta=-2)
    assert str(inst) == "T8(alpha=1/2, theta=-2)"
