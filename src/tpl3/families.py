"""The sixteen canonical compatible products T1..T16, case detection, and
the rows of each subcase's canonical automorphism.

Every family lives on the standard bracket [e1,e2,e3] = e1.  Families
T1..T8 take parameters (alpha, theta), T9..T12 (gamma, eta), T13..T16
(gamma, xi); one-parameter families carry only their first parameter.

The four case condition sets (on the solved-family coordinates) are:

    case 1:  r = t = 0,  w = -a ≠ 0,  s ≠ 0,  q = 0
    case 2:  r = t = 0,  w = -a ≠ 0,  s ≠ 0,  q ≠ 0
    case 3:  a = w = 0,  r = -t ≠ 0,  q ≠ 0,  s = 0
    case 4:  a = w = 0,  r = -t ≠ 0,  q ≠ 0,  s ≠ 0

and the subcase letter comes from the zero pattern of (g, h, k):
a when g = 0; b when g ≠ 0, h = 0; c when g, h ≠ 0, k = 0; d otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Optional

from .linalg import _Record, rat
from .algebra import CommProduct, FamilyCoordinates, _cleared_coordinates, _unscaled_product

FAMILY_IDS = tuple(f"T{i}" for i in range(1, 17))

#: parameter names per family, primary parameter first
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "T1": ("alpha",),
    "T2": ("alpha", "theta"),
    "T3": ("alpha",),
    "T4": ("alpha", "theta"),
    "T5": ("alpha",),
    "T6": ("alpha",),
    "T7": ("alpha",),
    "T8": ("alpha", "theta"),
    "T9": ("gamma",),
    "T10": ("gamma", "eta"),
    "T11": ("gamma",),
    "T12": ("gamma", "eta"),
    "T13": ("gamma",),
    "T14": ("gamma",),
    "T15": ("gamma",),
    "T16": ("gamma", "xi"),
}


class FamilyInstance(_Record):
    """A canonical family id together with exact parameter values."""

    __slots__ = ("id", "params")

    @classmethod
    def make(cls, family_id: str, **params) -> "FamilyInstance":
        if family_id not in FAMILY_PARAMS:
            raise ValueError(f"unknown family id {family_id!r}")
        expected = FAMILY_PARAMS[family_id]
        if set(params) != set(expected):
            raise ValueError(
                f"{family_id} takes parameters {expected}, got {tuple(params)}")
        return cls(family_id, tuple((name, rat(params[name])) for name in expected))

    @property
    def param_map(self) -> dict[str, Fraction]:
        return dict(self.params)

    def __str__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.id}({body})"


class CaseId(_Record):
    """One of the four case condition sets plus subcase letter a..d."""

    __slots__ = ("case", "subcase")

    def __init__(self, case: int, subcase: str):
        if case not in (1, 2, 3, 4) or subcase not in ("a", "b", "c", "d"):
            raise ValueError(f"bad case id {case}-{subcase}")
        self._store(self, case, subcase)

    def __str__(self) -> str:
        return f"{self.case}-{self.subcase}"

    @classmethod
    def parse(cls, text: str) -> "CaseId":
        try:
            case_text, sub = text.split("-")
            return cls(int(case_text), sub)
        except (ValueError, TypeError):
            raise ValueError(f"bad case id {text!r}; expected like '2-c'") from None


ALL_CASES = tuple(CaseId(c, s) for c in (1, 2, 3, 4) for s in "abcd")

#: subcase -> family produced by the canonical reduction of that subcase
CASE_FAMILY: dict[str, str] = {
    str(case): f"T{4 * (case.case - 1) + 'abcd'.index(case.subcase) + 1}"
    for case in ALL_CASES
}


_Z = Fraction(0)

#: each canonical table as solved-family coordinates (g,a,q,h,r,w,k,s,t) of
#: its primary and secondary parameter (alpha, theta), (gamma, eta) or
#: (gamma, xi); a one-parameter table ignores the secondary one
_CANONICAL_ROWS = {
    "T1": lambda al, th: (_Z, al, _Z, _Z, _Z, -al, _Z, -3 * al, _Z),
    "T2": lambda al, th: (th, al, _Z, _Z, _Z, -al, 3 * th, -3 * al, _Z),
    "T3": lambda al, th: (-2 * al, al, _Z, 2 * al, _Z, -al, _Z, Fraction(-4, 3) * al, _Z),
    "T4": lambda al, th: (th, al, _Z, al, _Z, -al, 3 * th + 2 * al, -3 * al, _Z),
    "T5": lambda al, th: (_Z, al, al, _Z, _Z, -al, _Z, -3 * al, _Z),
    "T6": lambda al, th: (al, al, al, _Z, _Z, -al, -3 * al, -3 * al, _Z),
    "T7": lambda al, th: (al, al, al, Fraction(-1, 2) * al, _Z, -al, _Z, -3 * al, _Z),
    "T8": lambda al, th: (th, al, al, Fraction(-3, 2) * th, _Z, -al, 3 * th, -3 * al, _Z),
    "T9": lambda ga, et: (_Z, _Z, -3 * ga, _Z, -ga, _Z, _Z, _Z, ga),
    "T10": lambda ga, et: (3 * et, _Z, -3 * ga, _Z, -ga, _Z, et, _Z, ga),
    "T11": lambda ga, et: (4 * ga, _Z, -3 * ga, 2 * ga, -ga, _Z, _Z, _Z, ga),
    "T12": lambda ga, et: (3 * et, _Z, -3 * ga, 2 * ga, -ga, _Z, et, _Z, ga),
    "T13": lambda ga, xi: (_Z, _Z, -3 * ga, _Z, -ga, _Z, _Z, ga, ga),
    "T14": lambda ga, xi: (2 * ga, _Z, -3 * ga, _Z, -ga, _Z, -ga, ga, ga),
    "T15": lambda ga, xi: (-3 * ga, _Z, -3 * ga, ga, -ga, _Z, _Z, ga, ga),
    "T16": lambda ga, xi: (-2 * xi, _Z, -3 * ga, xi, -ga, _Z, Fraction(-2, 3) * xi, ga, ga),
}

_H = Fraction(1, 2)
_Q3 = Fraction(3, 4)
_T = Fraction(3, 2)

#: subcase -> rows of its canonical automorphism witness, which
#: ``classify.CANONICAL_AUTOMORPHISM`` builds
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


_Rows = tuple[tuple[int, ...], ...]


@cache
def _table_form(family_id: str) -> tuple[int, _Rows, _Rows]:
    """The canonical table of ``family_id`` as integer linear forms: (L, A,
    B) with L·rows = P·A + S·B, where rows are the table's six pair rows
    (``FamilyCoordinates.pair_rows``) at primary parameter P and secondary
    parameter S, A and B hold one ``int`` row per pair, and L is the least
    common denominator of the rows at (P, S) = (1, 0) and (0, 1).  Every
    entry of ``_CANONICAL_ROWS`` and of the pair rows is linear in (P, S),
    so those two rows give the forms; a one-parameter table has B = 0."""
    make = _CANONICAL_ROWS[family_id]
    units = [FamilyCoordinates(*make(*unit)).pair_rows()
             for unit in ((Fraction(1), _Z), (_Z, Fraction(1)))]
    den = math.lcm(*(e.denominator for rows in units for row in rows for e in row))
    return (den, *(tuple(tuple(e.numerator * (den // e.denominator) for e in row) for row in rows)
                   for rows in units))


def table_rows(f: FamilyInstance) -> tuple[int, list[tuple[int, ...]]]:
    """The six pair rows of a family instance's table on integers: ``(den,
    rows)`` with den·pair_rows = rows, read from ``_table_form``; a missing
    secondary parameter reads as 0.  Each
    parameter is read once, by ``as_integer_ratio``, and each row is one
    3-tuple of ``int``s."""
    if f.id not in FAMILY_PARAMS:
        raise ValueError(f"unknown family id {f.id!r}")
    values = f.param_map
    primary, *secondary = FAMILY_PARAMS[f.id]
    pn, pd = values[primary].as_integer_ratio()
    sn, sd = (values.get(secondary[0], _Z) if secondary else _Z).as_integer_ratio()
    den, first, second = _table_form(f.id)
    x, y = pn * sd, sn * pd
    return den * pd * sd, [(x * e0 + y * d0, x * e1 + y * d1, x * e2 + y * d2)
                           for (e0, e1, e2), (d0, d1, d2) in zip(first, second)]


def instantiate_family(f: FamilyInstance) -> CommProduct:
    """The exact product table of a canonical family instance, built from
    its integer pair rows (``table_rows``) by ``algebra._unscaled_product``,
    which divides each entry by their denominator once."""
    return _unscaled_product(3, *table_rows(f))


def detect_case(p: CommProduct) -> Optional[CaseId]:
    """Match ``p`` against the four case condition sets, in order.

    Returns None when no set matches (such products are outside the scope
    of the canonical classification).  Raises ShapeMismatch when ``p`` is
    not in the solved compatible family at all.
    """
    return _case_of(*_cleared_coordinates(p)[1:])


def _case_of(g, a, q, h, r, w, k, s, t) -> Optional[CaseId]:
    """The case test on the coordinates (g, a, q, h, r, w, k, s, t) times
    any positive scale: every condition compares with zero or equates two
    coordinates, so ``Fraction``s and the ``int``s of
    ``algebra._cleared_coordinates`` give the same answer."""
    case: Optional[int] = None
    if r == 0 and t == 0 and w == -a and a != 0 and s != 0:
        case = 1 if q == 0 else 2
    elif a == 0 and w == 0 and r == -t and r != 0 and q != 0:
        case = 3 if s == 0 else 4
    if case is None:
        return None
    if g == 0:
        sub = "a"
    elif h == 0:
        sub = "b"
    elif k == 0:
        sub = "c"
    else:
        sub = "d"
    return CaseId(case, sub)
