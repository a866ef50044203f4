"""The paper-verification harness.

The rows of each subcase's canonical automorphism and the automorphisms
built from them (``CANONICAL_AUTOMORPHISM``), the eleven fixed-product
equations (``eleven_equation_residuals``), the eight associativity
relations of the solved family (``remark_associativity_residuals``), and
the seeded re-derivation of each subcase (``draw_family_params``,
``verify_paper_case``, ``verify_all_cases``).

Only ``tpl3 verify-paper`` and the tests import this module, or the
package on a first read of one of its names; no other module imports it,
so the classify route never compiles it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType
from typing import Union

from .algebra import (CheckReport, CommProduct, Violation, a3_bracket, check_transposed_leibniz,
                      family_coordinates)
from .morphisms import (AutoMatrix, NotAutomorphism, a3_automorphism_check,
                        is_bracket_automorphism, transport_product)
from .families import (ALL_CASES, CASE_FAMILY, FAMILY_PARAMS, CaseId, FamilyInstance,
                       detect_case, instantiate_family)


def eleven_equation_residuals(p: CommProduct, m: AutoMatrix) -> list[Fraction]:
    """Left-minus-right of the eleven structure-constant equations stating
    that the map fixes a solved-family product.

    All residuals vanish exactly when ``transport_product(p, m) == p``; the
    two formulations are kept independent and their agreement is a tested
    property.  Requires ``p`` in the solved family and ``m`` an automorphism
    of the standard bracket.
    """
    c = family_coordinates(p)
    if not a3_automorphism_check(m):
        raise NotAutomorphism("map fails the standard-bracket automorphism conditions")
    g, a, q, h, r, w, k, s, t = c.g, c.a, c.q, c.h, c.r, c.w, c.k, c.s, c.t
    e = m.map.entry
    l11 = e(0, 0)
    l21, l22, l23 = e(1, 0), e(1, 1), e(1, 2)
    l31, l32, l33 = e(2, 0), e(2, 1), e(2, 2)
    dbl = 2 * l22 * l33 - 1
    return [
        # e1-row couplings of the fixed-product condition
        (a + w) - (l33 * (a + w) - l23 * (r + t)),
        (r + t) - (-l32 * (a + w) + l22 * (r + t)),
        # e2,e3 components of e2·e2, e2·e3, e3·e3
        a - (l22 * l22 * l33 * a - l22 * l22 * l32 * q + 2 * l22 * l23 * l33 * r
             - 2 * l22 * l23 * l32 * w + l23 * l23 * l33 * s - l23 * l23 * l32 * t),
        q - (-l22 * l22 * l23 * a + l22 * l22 * l22 * q - 2 * l22 * l23 * l23 * r
             + 2 * l22 * l22 * l23 * w - l23 * l23 * l23 * s + l22 * l23 * l23 * t),
        r - (l22 * l32 * l33 * a - l22 * l32 * l32 * q + l33 * dbl * r
             - l32 * dbl * w + l23 * l33 * l33 * s - l23 * l32 * l33 * t),
        w - (-l22 * l23 * l32 * a + l22 * l22 * l32 * q - l23 * dbl * r
             + l22 * dbl * w - l23 * l23 * l33 * s + l22 * l23 * l33 * t),
        s - (l32 * l32 * l33 * a - l32 * l32 * l32 * q + 2 * l32 * l33 * l33 * r
             - 2 * l32 * l32 * l33 * w + l33 * l33 * l33 * s - l32 * l33 * l33 * t),
        t - (-l23 * l32 * l32 * a + l22 * l32 * l32 * q - 2 * l23 * l32 * l33 * r
             + 2 * l22 * l32 * l33 * w - l23 * l33 * l33 * s + l22 * l33 * l33 * t),
        # e1 components of e2·e2, e2·e3, e3·e3
        g - (l22 * l22 * g - l31 * q + l21 * w + 2 * l22 * l23 * h
             + l23 * l23 * k) / l11,
        h - ((l31 * (a - w) + l21 * (t - r)) / 2 + l22 * l32 * g
             + (l22 * l33 + l23 * l32) * h + l23 * l33 * k) / l11,
        k - (l32 * l32 * g + 2 * l32 * l33 * h + l31 * r + l33 * l33 * k
             - l21 * s) / l11,
    ]


def remark_associativity_residuals(p: CommProduct) -> list[Fraction]:
    """Left-minus-right of the eight polynomial relations that the solved
    family's constants satisfy whenever the product is associative.

    Requires ``p`` in the solved family (ShapeMismatch otherwise).  The
    relations are necessary for associativity, not claimed sufficient.
    """
    c = family_coordinates(p)
    g, a, q, h, r, w, k, s, t = c.g, c.a, c.q, c.h, c.r, c.w, c.k, c.s, c.t
    return [
        a * a + 2 * q * r + 2 * q * t - w * w,
        a * r + 3 * r * w + w * t - a * t,
        2 * a * s + 2 * w * s + t * t - r * r,
        g * t + a * h + 2 * q * k - g * r - 3 * h * w,
        r * w - q * s,
        q * r + w * w - a * w - q * t,
        k * a + 2 * g * s + h * t - k * w - 3 * h * r,
        r * r + w * s - a * s - r * t,
    ]


def _draw_rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if value != 0 or not nonzero:
            return value


def draw_family_params(family_id: str, rng: random.Random) -> dict[str, Fraction]:
    """Random parameters under which the instance satisfies its case's
    conditions and subcase zero pattern, and its reduction data selects its
    own family (used by the verification harness and the round-trip tests).

    The excluded sets are thin: for T4, 3θ+2α = 0 breaks the subcase zero
    pattern and 3θ+α = 0 collapses the instance into the T1 orbit.
    """
    names = FAMILY_PARAMS[family_id]
    while True:
        params = {name: _draw_rat(rng, nonzero=True) for name in names}
        if family_id == "T4" and (3 * params["theta"] + 2 * params["alpha"] == 0
                                  or 3 * params["theta"] + params["alpha"] == 0):
            continue
        return params


_H = Fraction(1, 2)
_Q3 = Fraction(3, 4)
_T = Fraction(3, 2)

#: subcase -> rows of its canonical automorphism witness, which
#: ``CANONICAL_AUTOMORPHISM`` builds
_WITNESS_ROWS = {
    "1-a": [[1, 0, 0], [0, -_H, _H], [0, -_T, -_H]],
    "1-b": [[1, 0, 0], [0, -_H, _H], [0, -_T, -_H]],
    "1-c": [[1, 0, 0], [3, -_H, -_Q3], [2, 1, -_H]],
    "1-d": [[1, 0, 0], [0, -_H, _H], [2, -_T, -_H]],
    "2-a": [[1, 0, 0], [0, -2, -1], [0, 3, 1]],
    "2-b": [[1, 0, 0], [-3, -2, -1], [3, 3, 1]],
    "2-c": [[1, 0, 0], [-2, -2, -1], [3, 3, 1]],
    "2-d": [[1, 0, 0], [0, -2, -1], [0, 3, 1]],
    "3-a": [[1, 0, 0], [0, -_H, _T], [0, -_H, -_H]],
    "3-b": [[1, 0, 0], [0, -_H, -_T], [0, _H, -_H]],
    "3-c": [[1, 0, 0], [2, -_H, _T], [2, -_H, -_H]],
    "3-d": [[1, 0, 0], [3, -_H, -_T], [-1, _H, -_H]],
    "4-a": [[1, 0, 0], [0, -2, -3], [0, 1, 1]],
    "4-b": [[1, 0, 0], [1, -2, -3], [1, 1, 1]],
    "4-c": [[1, 0, 0], [0, -2, -3], [-1, 1, 1]],
    "4-d": [[1, 0, 0], [0, -2, -3], [0, 1, 1]],
}


#: the canonical automorphism of each subcase, built once from its rows in
#: ``_WITNESS_ROWS``; each one fixes every instance of its family (a tested
#: property)
CANONICAL_AUTOMORPHISM = MappingProxyType(
    {case: AutoMatrix.from_rows(rows) for case, rows in _WITNESS_ROWS.items()})


def verify_paper_case(case: Union[CaseId, str], seed: int = 0,
                      draws: int = 4) -> CheckReport:
    """Re-derive one classification subcase with random rational parameters.

    For the subcase's canonical automorphism Φ and family T: Φ passes both
    automorphism checks; T instances satisfy the coupling identity; Φ fixes
    every T instance under transport; the eleven fixed-product residuals
    vanish on (T, Φ); and case detection maps T back to the subcase.
    """
    case_id = CaseId.parse(case) if isinstance(case, str) else case
    family_id = CASE_FAMILY[str(case_id)]
    phi = CANONICAL_AUTOMORPHISM[str(case_id)]
    bracket = a3_bracket()
    violations: list[Violation] = []

    def record(label: str, trial, left, right):
        violations.append(Violation((str(case_id), label, trial), left, right))

    if not a3_automorphism_check(phi):
        record("closed-form-automorphism-check", None, "False", "True")
    auto_report = is_bracket_automorphism(bracket, phi)
    for v in auto_report.violations:
        record("bracket-automorphism", v.witness, v.left, v.right)

    rng = random.Random(f"{seed}:{case_id}")
    for trial in range(draws):
        params = draw_family_params(family_id, rng)
        instance = instantiate_family(FamilyInstance.make(family_id, **params))
        leib = check_transposed_leibniz(bracket, instance)
        for v in leib.violations:
            record("transposed-leibniz", (trial,) + v.witness, v.left, v.right)
        moved = transport_product(instance, phi)
        if moved != instance:
            record("transport-fixed-point", trial, repr(moved), repr(instance))
        residuals = eleven_equation_residuals(instance, phi)
        if any(residuals):
            record("fixed-product-residuals", trial,
                   "[" + ", ".join(str(x) for x in residuals) + "]",
                   "all zero")
        detected = detect_case(instance)
        if detected != case_id:
            record("case-detection", trial, str(detected), str(case_id))
    return CheckReport(tuple(violations))


def verify_all_cases(seed: int = 0, draws: int = 4) -> dict[str, CheckReport]:
    return {str(c): verify_paper_case(c, seed=seed, draws=draws) for c in ALL_CASES}
