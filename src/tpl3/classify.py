"""Classification of compatible products on the standard 3-dimensional bracket.

``classify`` gates by shape: on [e1,e2,e3] = e1 the coupling identity holds
exactly on the solved family, so only a product outside that family runs
the coupling-identity check, whose report becomes ``NotTransposedPoisson``.

``normalize`` reduces a product satisfying one of the four case condition
sets onto a canonical family instance by an explicit bracket automorphism,
and returns a machine-checkable certificate.  Working over exact rationals,
the reduction may require a root that does not exist in the rationals; that
outcome is reported as ``NeedsExtension`` with the radicand and the degree
of the defining equation, never approximated.

Reduction scheme: witnesses have the shape
diag(1, B)·[[u,0,0],[x,c,0],[y,0,1/c]] with B in SL2(ℚ).  ``normalize``
tries the identity block B, then every match of the binary quotient cubic
onto a table cubic (``_candidate_blocks``: the Hessian, then cube roots in
ℚ(√−3)), each an integer block from the matcher to the witness.  It moves
the input's integer coordinates by each block in closed form
(``_moved_coordinates``), so it reads the product once, and finishes each
block in the case of the coordinates it moves:

* the block scaling e2 ↦ c·e2, e3 ↦ e3/c rescales the e2/e3 structure
  constants; matching the canonical tables pins c by ``c**4 = radicand``
  in cases 1 and 3 and by ``c**2 = radicand`` in cases 2 and 4,
* the shifts x, y and the e1 scaling u then move the e1 components onto
  the canonical table; this is one exact affine solve,
* the family is picked by the determinant D of the shift system
  (``_shift_determinant``).  On products with e1·A = 0, as in every case,
  every automorphism keeps D = 0; it picks T1, T5/T6, T9 or T13/T15, else
  a quartic match picks T3 and the zero pattern of (g, h, k) the rest.
  So the solve never fails: every case has a·s − r² ≠ 0, so row 0 of the
  adjugate of the shift system reduces it to one scalar equation in u and
  z, for every D, and Cramer's rule on that minor gives x and y; for D = 0
  the e1 targets lie in the column space, and for D ≠ 0 the solved u, or
  the kernel's u-entry for two-parameter tables, is a nonzero monomial.

So each case yields ordered (family, radicand) candidates, and one
finisher certifies the first whose radicand has a rational root.  The
first block that certifies wins; otherwise the identity block's
``NeedsExtension`` stands, or off its shape the matcher's reason.  Every
certificate is revalidated exactly once before it is returned, by
``Certificate.validate``: the witness passes the automorphism check, which
also proves it invertible, and then φ(e_i·e_j) = φ(e_i) ∗ φ(e_j) holds
exactly on the six basis pairs, with ∗ the canonical table, on integers.
For a bijection that is the same as transporting the input onto the
table, so no certificate inverts its witness, nor keeps an inverse.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Union

from .linalg import Matrix, _Record, _integer_root, rank, rational_root
from .algebra import (CheckReport, CommProduct, ShapeMismatch, TriBracket, Violation, _ZERO,
                      _cleared_coordinates, a3_bracket, check_transposed_leibniz,
                      structure_table)
from .morphisms import (AutoMatrix, _homomorphism, a3_automorphism_check,
                        eleven_equation_residuals, is_bracket_automorphism, transport_product)
from .families import (ALL_CASES, CASE_FAMILY, FAMILY_PARAMS, CaseId, FamilyInstance,
                       _WITNESS_ROWS, _case_of, _table_form, detect_case, instantiate_family,
                       table_rows)


class Certificate(_Record):
    """An automorphism witnessing input ≅ canonical family instance."""

    __slots__ = ("input", "family", "witness")

    def validate(self) -> bool:
        """Whether the witness is an automorphism of [e1,e2,e3] = e1 that
        carries the input exactly onto the family's canonical table.

        ``a3_automorphism_check`` comes first, and it also proves the
        witness invertible.  Then φ(e_i·e_j) = φ(e_i) ∗ φ(e_j) on the six
        basis pairs (``morphisms._homomorphism``), with ∗ the table read on
        integers from its linear forms (``families.table_rows``); for an
        invertible φ that holds exactly when the input transported by φ is
        the table, and no inverse, product or ``Vector`` is built.  It reads
        only the three fields, never the solve that produced them, so it
        stays an independent check of every certificate.
        """
        if not a3_automorphism_check(self.witness):
            return False
        return _homomorphism(self.input, self.witness, *table_rows(self.family))


class NeedsExtension(_Record):
    """Normalisation requires an irrational root of ``radicand`` (the
    defining equation is x**degree = radicand)."""

    __slots__ = ("radicand", "degree")


class Unclassified(_Record):
    """No case condition set applies, or the input is in one but no
    canonical table is isomorphic to it over the rationals; ``reason`` says
    which, and for the second names the class of the quotient cubic that
    rules the tables out."""

    __slots__ = ("reason",)


class NotTransposedPoisson(_Record):
    """The coupling identity fails; the report carries witnesses."""

    __slots__ = ("report",)


class Unsupported(_Record):
    __slots__ = ("reason",)


ClassifyResult = Union[Certificate, NeedsExtension, Unclassified,
                       NotTransposedPoisson, Unsupported]

#: an e2/e3 block on integers, (b11, b12, b21, b22, m): the SL2 block
#: B = [[b11, b12], [b21, b22]]/m, with m > 0, so b11·b22 − b12·b21 = m²
_Block = tuple[int, int, int, int, int]


def _solve_witness(co: tuple[int, ...], c: Fraction, family_id: str, primary: Fraction,
                   det: int) -> Optional[tuple[Fraction, Fraction, Fraction,
                                                 Optional[Fraction]]]:
    """Solve for the e1 scaling u, the shifts x, y, and the secondary family
    parameter z (when the family has one) so that the witness
    [[u,0,0],[x,c,0],[y,0,1/c]] lands exactly on the canonical table.

    Under this witness shape the e1 components transform as

        g' = (g·u + a·x + q·y) / c²
        h' = h·u + r·x - a·y
        k' = (k·u + s·x - r·y) · c²

    so M·(u, x, y) = b + z·σ with M = [[g,a,q],[h,r,−a],[k,s,−r]], the
    targets b and, for a two-parameter table, the slope σ of the targets in
    z.  ``co`` holds the coordinates on integers on a positive scale, as
    ``_cleared_coordinates`` or ``_moved_coordinates`` returns them, and
    ``det`` is ``_shift_determinant(co)``, D.  M is read from ``co``, and b
    and σ from the table's linear forms (``families._table_form``), on
    integers over one denominator W; a ``Fraction`` is built only for each
    reported value.

    Row 0 of adj(M), ℓ = (m, a·r + q·s, −a² − q·r) with the minor
    m = a·s − r², has ℓ·M = (D, 0, 0) for every D, so it leaves one scalar
    equation, D·u·W = ℓ·b + z·ℓ·σ.  When ℓ·σ ≠ 0 it fixes z for u = 1;
    otherwise z = 0, and u = ℓ·b/(D·W) for D ≠ 0, while for D = 0 it holds
    for every u, so u = 1, exactly when ℓ·b = 0.  A fixed u = 0 admits no
    witness.  Rows 2 and 3 give x and y by Cramer's rule on
    [[r, −a], [s, −r]], of determinant m, and row 1 then holds, as m ≠ 0.
    Every case condition set has m ≠ 0 (sets 1–2 have r = 0 and a·s ≠ 0,
    sets 3–4 a = 0 and r ≠ 0); a zero minor raises ``ValueError``.
    """
    den, _, a, q, h, r, _, k, s, _ = co
    minor = a * s - r * r
    if not minor:
        raise ValueError("the witness solve needs a·s − r² ≠ 0, "
                         "as every case condition set has")
    form_den, first, second = _table_form(family_id)
    # the e1 entries of e2·e2, e2·e3 and e3·e3 are in the pair rows 3, 4 and
    # 5, moved by c², 1 and 1/c²: over W = den(primary)·L·num(c)²·den(c)²,
    # and times den, as M is; a one-parameter table has zero slopes
    cn, cd = c.numerator ** 2, c.denominator ** 2
    pn, pd = primary.numerator, primary.denominator
    weights = (den * cn * cn, den * cn * cd, den * cd * cd)
    targets = [pn * row[0] * w for row, w in zip(first[3:], weights)]
    slopes = [pd * row[0] * w for row, w in zip(second[3:], weights)]
    scale = pd * form_den * cn * cd
    left = (minor, a * r + q * s, -a * a - q * r)
    drift = sum(e * v for e, v in zip(left, targets))
    turn = sum(e * v for e, v in zip(left, slopes))
    # u = un/ud and z = zn/zd
    if turn:
        un, ud, zn, zd = 1, 1, det * scale - drift, turn
    elif det and drift:
        un, ud, zn, zd = drift, det * scale, 0, 1
    elif det or drift:  # u = 0, or the targets leave the column space
        return None
    else:
        un, ud, zn, zd = 1, 1, 0, 1
    # rows 2 and 3, over scale·zd·ud
    r1, r2 = ((v * zd + zn * w) * ud - e * un * scale * zd
              for v, w, e in zip(targets[1:], slopes[1:], (h, k)))
    out = minor * scale * zd * ud
    z = Fraction(zn, zd) if len(FAMILY_PARAMS[family_id]) == 2 else None
    return (Fraction(un, ud), Fraction(a * r2 - r * r1, out), Fraction(r * r2 - s * r1, out), z)


def _certify(p: CommProduct, co: tuple[int, ...], block: Optional[_Block], c: Fraction,
             family_id: str, primary: Fraction, det: int) -> Certificate:
    """The certificate for ``p`` onto ``family_id``, where ``co`` are the
    coordinates of ``p`` moved by diag(1, B), or of ``p`` when ``block`` is
    None, and ``det`` their shift determinant.  The witness is
    diag(1, B)·[[u,0,0],[x,c,0],[y,0,1/c]], revalidated against ``p``.
    """
    solved = _solve_witness(co, c, family_id, primary, det)
    if solved is None:
        raise RuntimeError(f"internal error: no witness onto {family_id}")
    u, x, y, z = solved
    params = dict(zip(FAMILY_PARAMS[family_id], (primary, z)))
    family = FamilyInstance.make(family_id, **params)
    # the nine entries are Fractions, built once each: the solved values,
    # c and B's entries are Fractions, and so is every product and quotient
    if block is None:
        entries = (u, _ZERO, _ZERO, x, c, _ZERO, y, _ZERO, 1 / c)
    else:
        b11, b12, b21, b22 = (Fraction(e, block[4]) for e in block[:4])
        entries = (u, _ZERO, _ZERO,
                   b11 * x + b12 * y, b11 * c, b12 / c,
                   b21 * x + b22 * y, b21 * c, b22 / c)
    witness = AutoMatrix(Matrix._from_fields(3, 3, entries))
    cert = Certificate(input=p, family=family, witness=witness)
    if not cert.validate():
        raise RuntimeError(
            f"internal error: witness for {family_id} failed revalidation")
    return cert


def _shift_determinant(co: tuple[int, ...]) -> int:
    """det [[g, a, q], [h, r, −a], [k, s, −r]], the shift system of
    ``_solve_witness``, times the cube of the scale of the cleared ``co``."""
    _, g, a, q, h, r, _, k, s, _ = co
    return g * (a * s - r * r) + a * (h * r - a * k) + q * (h * s - r * k)


def _hessian_frame(f: tuple[int, int, int, int]):
    """The Hessian frame (N, κ) of the integer cubic (A, B, C, D), i.e.
    A·x³ + B·x²y + C·xy² + D·y³: f∘N ∝ Re(κ·z³) with z = X + √−3·Y, κ as the
    pair (κ1, κ2) of κ1 + κ2·√−3 and the column map N as (N11, N12, N22).
    None unless the discriminant is a square d² ≠ 0.

    The Hessian h0·x² + h1·xy + (C²−3BD)·y², h0 = B²−3AC, h1 = BC−9AD, has
    discriminant −3d², so N = [[d, −h1], [0, 2·h0]] completes its square to
    a multiple of X² + 3Y².  A cubic with that Hessian has the shape
    (A', B', −9A', −B') = Re(κ·z³), κ ∝ 9A' − B'·√−3; here A' = A·d³ and
    B' = d²·(2B·h0 − 3A·h1).
    """
    a, b, c, d = f
    disc = b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    root = math.isqrt(max(disc, 0))
    if disc == 0 or root * root != disc:
        return None
    h0, h1 = b * b - 3 * a * c, b * c - 9 * a * d
    return (root, -h1, 2 * h0), (9 * a * root, 3 * a * h1 - 2 * b * h0)


def _cube_multipliers(g1: int, g2: int) -> list[tuple[int, int]]:
    """Every μ = m1 + m2·√−3 up to ℚ* with μ³ ∈ ℚ*·γ, γ = g1 + g2·√−3, as
    pairs (m1, m2): none, or one orbit of three.

    That holds exactly when ν = μ/μ̄ has ν³ = β = γ/γ̄, and every ν of norm
    one is such a quotient (Hilbert 90): μ = 1 + ν, or μ = √−3 for ν = −1.
    For Re β = P/Q and ν = (z + w·√−3)/(2Q), z is an integer root of the
    Chebyshev cubic z³ − 3Q²z − 2PQ² and 3w² = 4Q² − z².  Its three roots
    are the real parts of the cube roots of β, which ℚ(√−3) holds all or
    none of, as it holds the cube roots of unity.  So the least root, in
    [−2Q, −Q] where the cubic increases, decides them; the sign of w picks
    β over β̄.
    """
    content = math.gcd(g1, g2)
    g1, g2 = g1 // content, g2 // content
    norm, real = g1 * g1 + 3 * g2 * g2, g1 * g1 - 3 * g2 * g2
    common = math.gcd(real, norm)
    p, q = real // common, norm // common
    qq = q * q
    z = _integer_root(lambda t: (t * t - 3 * qq) * t - 2 * p * qq, -2 * q - 1, -q)
    if z is None:
        return []
    w2, rest = divmod(4 * qq - z * z, 3)
    w = math.isqrt(w2)
    if rest or w * w != w2:
        return []
    if w * (z * z - w * w) * g1 * g2 < 0:  # the √−3 parts of ν³ and β differ
        w = -w
    multipliers = []
    for _ in range(3):
        multipliers.append((0, 1) if z == -2 * q else (2 * q + z, w))
        z, w = (-z - 3 * w) // 2, (z - w) // 2  # ν·(−1 + √−3)/2
    return multipliers


def _mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def _cubic_matches(source, target) -> list[Optional[_Block]]:
    """Every projective map M with f∘M ∝ g, given the Hessian frames of f
    and g, as the SL2 block adj(M)ᵀ/√det M on integers (``_Block``), its
    sign in the numerators so that the first nonzero one is positive, or
    None when det M is not a square.  The rational maps keeping X² + 3Y²
    up to scale are z ↦ μ·z and z ↦ μ·z̄, which take Re(κ·z³) to Re(κμ³·z³)
    and Re(κ̄μ³·z³); so M = N_f·diag(1, ±1)·L_μ·N_g⁻¹, with L_μ the matrix
    of z ↦ μ·z, for each μ with κ_f·μ³ or κ̄_f·μ³ in ℚ*·κ_g.
    """
    (n11, n12, n22), (k1, k2) = source
    (t11, t12, t22), (c1, c2) = target
    blocks: list[Optional[_Block]] = []
    for flip in (1, -1):  # z ↦ μ·z, then z ↦ μ·z̄
        # κ_g / κ ∝ κ_g·κ̄ for κ = k1 + flip·k2·√−3
        for m1, m2 in _cube_multipliers(c1 * k1 + 3 * flip * c2 * k2,
                                        c2 * k1 - flip * c1 * k2):
            (m11, m12), (m21, m22) = _mul(
                _mul(((n11, flip * n12), (0, flip * n22)), ((m1, -3 * m2), (m2, m1))),
                ((t22, -t12), (0, t11)))
            det = m11 * m22 - m12 * m21
            root = math.isqrt(max(det, 0))
            sign = -1 if m22 < 0 or m22 == 0 and m21 > 0 else 1
            blocks.append((sign * m22, -sign * m21, -sign * m12, sign * m11, root)
                          if root * root == det else None)
    # the sparsest first: a diagonal or antidiagonal block keeps the reachable
    # case shapes, and is tried before the rest of its orbit
    return sorted(blocks, key=lambda b: 1 if b is None else -b.count(0))


#: the table cubics in groups of projectively equivalent forms, with the
#: reason that stands when no match certifies: the split root triples
#: (∞, ±1), (∞, ±2/3), (0, ±1); h₂ = X³ − 3X²Y + 3Y³, 3X³ − 3XY² + Y³
_TARGET_GROUPS = tuple(
    (reason, tuple(_hessian_frame(g) for g in cubics)) for reason, cubics in (
        ("the quotient cubic splits over the rationals but every root matching "
         "has a non-square determinant",
         ((0, 1, 0, -1), (0, 9, 0, -4), (1, 0, -1, 0))),
        ("the quotient cubic is irreducible over the rationals and every match "
         "onto the case-2 and case-4 table cubics has a non-square determinant",
         ((1, -3, 0, 3), (3, 0, -3, 1)))))


def _candidate_blocks(co: tuple[int, ...]) -> tuple[list[Optional[_Block]], str]:
    """The e2/e3 blocks the reduction tries after the identity, and the
    reason that stands when none certifies, also when there is none.

    The block B moves the binary cubic f = q·x³ − 3a·x²y − 3r·xy² − s·y³ of
    an in-case input to f∘B⁻ᵀ, and a witness onto a canonical table moves f
    onto a multiple of the table's cubic.  So the blocks are the matches of
    f onto the first group of table cubics it matches at all, and each one
    moves an in-case input into the case of its table cubic.  A split
    cubic has 6 matches onto each split table cubic, one per root
    permutation.  An irreducible cubic has one orbit of 3 matches onto each
    table cubic it matches: a map that fixes its roots commutes with the
    Galois group, cyclic of order 3 here, so the stabiliser in PGL2(ℚ) is
    that order-3 group, of square determinant, and the matches share one
    determinant class.  Every table T5–T8 and T13–T16 has radicand 1,
    so a case-2 or case-4 input certifies exactly when its matches onto h₂
    or the case-4 form have a square determinant; otherwise the identity
    block's ``NeedsExtension`` proves that no table is isomorphic to it.

    ``co`` holds the coordinates on integers (``algebra._cleared_coordinates``)
    on a positive scale, which leaves the matches unchanged.
    """
    _, _, a, q, _, r, _, _, s, _ = co
    source = _hessian_frame((q, -3 * a, -3 * r, -s))
    if source is None:
        return [], ("the discriminant of the quotient cubic is not a nonzero "
                    "rational square, as that of every table cubic is")
    for reason, targets in _TARGET_GROUPS:
        blocks = _cubic_matches(source, targets[0])
        if blocks:  # the targets of a group are projectively equivalent
            return blocks + [b for t in targets[1:] for b in _cubic_matches(source, t)], reason
    return [], ("the quotient cubic is irreducible and generates a cubic field "
                "other than that of the case-2 and case-4 table cubics")


def normalize(p: CommProduct) -> Union[Certificate, NeedsExtension, Unclassified]:
    """Reduce a solved-family product onto a canonical family instance.

    Returns a ``Certificate`` with an exact witness, ``NeedsExtension``
    when the reduction requires a root that does not exist in ℚ, or
    ``Unclassified`` when no case condition set applies or no table is
    isomorphic to the input.  Raises ShapeMismatch for products outside
    the solved family.

    After the identity block come the matches of the quotient cubic onto
    the table cubics (see ``_candidate_blocks``), which also find
    isomorphisms that cross between the case condition sets.  So for inputs
    inside the four sets the analysis is complete: a surviving diagnostic
    means that no rational witness to any canonical table exists, and an
    ``Unclassified`` one names the class of the cubic.
    Inputs outside the sets are ``Unclassified`` even when a rational
    witness exists.
    """
    co = _cleared_coordinates(p)
    case = _case_of(*co[1:])
    if case is None:
        return Unclassified("no case condition set matches the structure constants")
    in_case = _reduce_in_case(p, co, case, None)
    if isinstance(in_case, Certificate):
        return in_case
    blocks, reason = _candidate_blocks(co)
    for block in blocks:
        if block is None:
            continue
        moved = _moved_coordinates(co, block)
        result = _reduce_in_case(p, moved, _case_of(*moved[1:]), block)
        if isinstance(result, Certificate):
            return result
    if in_case is None:
        return Unclassified(
            f"{reason}: not isomorphic to any canonical table over the rationals")
    return in_case


def _moved_coordinates(co: tuple[int, ...], block: _Block) -> tuple[int, ...]:
    """The cleared coordinates ``co`` moved by φ = diag(1, B), B = M/m, on
    the positive scale D·m³: e_i ∗ e_j = φ(φ⁻¹e_i · φ⁻¹e_j) for the pairs
    (2,2), (2,3), (3,3), with φ⁻¹ = diag(1, adj M/m), so φ⁻¹e2 and φ⁻¹e3
    are (b22, −b12) and (−b21, b11) over m.  Each pair expands over D·m²,
    and φ keeps its e1 entry and moves its e2/e3 part by M over m."""
    den, g, a, q, h, r, w, k, s, t = co
    b11, b12, b21, b22, m = block
    x, y = (b22, -b12), (-b21, b11)
    moved = [den * m ** 3]
    for (x2, x3), (y2, y3) in ((x, x), (x, y), (y, y)):
        c22, c23, c33 = x2 * y2, x2 * y3 + x3 * y2, x3 * y3
        v2, v3 = c22 * a + c23 * r + c33 * s, c22 * q + c23 * w + c33 * t
        moved += (m * (c22 * g + c23 * h + c33 * k), v2 * b11 + v3 * b21, v2 * b12 + v3 * b22)
    return tuple(moved)


def _reduce_in_case(p: CommProduct, co: tuple[int, ...], case: CaseId,
                    block: Optional[_Block]) -> Union[Certificate, NeedsExtension, None]:
    """Each case picks its ordered (family, radicand) candidates, the root
    degree pinning the block scaling c, and the radicand ``NeedsExtension``
    reports; the first candidate with a rational root is certified.  None
    when the e2/e3 block is off the shape of the case's tables.

    ``co`` are the coordinates of ``p`` moved by diag(1, B)
    (``_moved_coordinates``), or of ``p`` when ``block`` is None; every
    test here is homogeneous in them, and the radicands are ratios."""
    den, g, a, q, h, r, _, k, s, _ = co
    if (case.case == 2 and q * q * s != -3 * a ** 3
            or case.case == 4 and 3 * r ** 3 != q * s * s):
        return None
    det = _shift_determinant(co)
    singular = det == 0
    if case.case == 1:
        rad_t2, rad_t3 = Fraction(-3 * a, s), Fraction(-4 * a, 3 * s)
        candidates = ([("T1", rad_t2)] if singular else
                      [("T3", rad_t3), ("T4" if case.subcase == "d" else "T2", rad_t2)])
        # subcase c has k = 0, so D = a·g·s never vanishes
        degree, reported = 4, rad_t3 if case.subcase == "c" else rad_t2
    elif case.case == 2:
        if singular:
            target = "T5" if g == 0 else "T6"
        else:
            target = "T7" if case.subcase == "c" else "T8"
        candidates, degree = [(target, Fraction(q, a))], 2
    elif case.case == 3:
        if singular:
            target = "T9"
        elif g != 0 and h != 0:
            target = "T11" if k == 0 else "T12"
        else:
            target = "T10"
        candidates, degree = [(target, Fraction(q, 3 * r))], 4
    else:
        if singular:
            target = "T13" if g == 0 else "T15"
        else:
            target = "T14" if case.subcase == "b" else "T16"
        candidates, degree = [(target, Fraction(-r, s))], 2
    if case.case != 1:
        reported = candidates[0][1]

    for family_id, radicand in candidates:
        c = rational_root(radicand, degree)
        if c is not None:
            if case.case in (1, 2):  # a/c and −r·c
                primary = Fraction(a * c.denominator, den * c.numerator)
            else:
                primary = Fraction(-r * c.numerator, den * c.denominator)
            return _certify(p, co, block, c, family_id, primary, det)
    return NeedsExtension(reported, degree)


#: the integer structure table of [e1,e2,e3] = e1, as ``structure_table``
#: returns it
_STANDARD_TABLE = structure_table(a3_bracket())


def classify(b: TriBracket, p: CommProduct) -> ClassifyResult:
    """Full pipeline: bracket check, then normalisation.  The coupling
    identity holds exactly on the solved family, so only a product that
    ``normalize`` rejects by shape runs the identity check, whose report
    becomes ``NotTransposedPoisson`` (a wrong dimension raises there).

    The bracket check compares integer tables: ``b`` is [e1,e2,e3] = e1
    exactly when it has dimension 3 and ``structure_table(b)`` equals that
    of the standard bracket.  The dimension is tested first, so a bracket of
    another dimension builds no table.  The test is exact: D is the least
    common denominator of the stored coefficients and the table holds every
    nonzero one times D, so (D, table) determines the coefficients, and
    ``TriBracket`` drops zero vectors on construction, so equal coefficients
    are equal brackets.  A certificate's witness is built by
    ``Matrix._from_fields`` from a tuple of nine ``Fraction``s, which is
    that constructor's whole contract (see ``_certify``), and still through
    ``AutoMatrix``, so its shape check runs on construction.
    """
    if b.dim != 3 or structure_table(b) != _STANDARD_TABLE:
        return Unsupported(
            "classification is implemented for the standard bracket "
            "[e1,e2,e3] = e1 only")
    try:
        return normalize(p)
    except ShapeMismatch:
        return NotTransposedPoisson(check_transposed_leibniz(b, p))


def fingerprint(b: TriBracket, p: CommProduct) -> tuple[int, int, int, int, int]:
    """Transport-invariant integer tuple (a partial non-isomorphism separator).

    Components: dimension of the 1/3-derivation space of the bracket, rank
    of the product as a map Sym²A → A, dimension of the annihilator
    {x : x·A = 0}, dimension of span(A·A), and the dimension of the span of
    all left-multiplication operators.  Each is a rank, hence independent
    of the basis; equal fingerprints do not imply isomorphism.

    Two ranks give the last four: span(A·A) is the image of Sym²A → A, and
    the annihilator is the left kernel of the stacked left multiplications
    (row i lists e_i·e_j for all j), of dimension n minus their rank.
    """
    from .derivations import DerivationQuery, delta_derivations

    if b.dim != p.dim:
        raise ValueError("bracket and product dimensions differ")
    deriv_dim = delta_derivations(DerivationQuery(b)).dim
    idx = range(1, p.dim + 1)
    sym_rank = rank(Matrix.from_rows(
        [list(p.basis_product(i, j)) for i in idx for j in idx if i <= j]))
    lmul_rank = rank(Matrix.from_rows(
        [[c for j in idx for c in p.basis_product(i, j)] for i in idx]))
    return (deriv_dim, sym_rank, p.dim - lmul_rank, sym_rank, lmul_rank)


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


#: the canonical automorphism of each subcase, built once from its rows in
#: ``families``; each one fixes every instance of its family (a tested property)
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
