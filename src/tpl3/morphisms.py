"""Automorphism checks and transport of products and brackets.

A linear map φ is stored in the row convention: row i of the matrix holds
the coordinates of φ(e_i), so coordinate rows transform as x ↦ x·Λ.

Transport is the push-forward: the transported product is

    x ∗ y = φ(φ⁻¹(x) · φ⁻¹(y)),

which makes φ an isomorphism from the input algebra to the output algebra.
In this row convention the push-forward satisfies

    transport(p, a·b) = transport(transport(p, a), b)

(matrix product a·b transports like "apply a first").

No map keeps its inverse: each transport calls ``invert`` when it runs,
and moves on integers.  ``classify.normalize`` moves its candidate e2/e3
blocks in closed form on coordinates (``classify._moved_coordinates``),
with no transport.
"""

from __future__ import annotations

import math
from itertools import combinations

from .linalg import DimensionMismatch, Matrix, Singular, _Record, invert, vec_mat
from .algebra import (CheckReport, CommProduct, TriBracket, Violation, _basis_pairs,
                      _product_table, _unscaled, _unscaled_product, bracket_eval,
                      structure_table)


class NotAutomorphism(ValueError):
    """The supplied map is not an automorphism of the standard bracket."""


def _is_a3_shape(m: Matrix) -> bool:
    """Whether the 3×3 map has the automorphism shape of [e1,e2,e3] = e1:
    Λ12 = Λ13 = 0, Λ11 ≠ 0 and Λ22·Λ33 − Λ23·Λ32 = 1, decided on
    numerators and denominators: with B = [[b11, b12], [b21, b22]] and
    bij = nij/dij, det B = 1 reads n11·n22·d12·d21 − n12·n21·d11·d22 =
    d11·d12·d21·d22."""
    u, l12, l13, _, b11, b12, _, b21, b22 = m.entries
    if l12.numerator or l13.numerator or not u.numerator:
        return False
    d11, d12, d21, d22 = b11.denominator, b12.denominator, b21.denominator, b22.denominator
    return (b11.numerator * b22.numerator * d12 * d21
            - b12.numerator * b21.numerator * d11 * d22 == d11 * d12 * d21 * d22)


class AutoMatrix(_Record):
    """An invertible linear map in the row convention φ(e_i) = Σ_j Λ_ij e_j.

    ``__post_init__`` runs on every construction and proves the map
    invertible: a map of the automorphism shape of [e1,e2,e3] = e1
    (``a3_automorphism_check``) by that shape alone, with no elimination,
    and every other map by ``invert``.  No inverse is kept.
    """

    __slots__ = ("map",)

    def __init__(self, map: Matrix):
        self._store(self, map)
        self.__post_init__()

    def __post_init__(self):
        m = self.map
        if not m.is_square():
            raise DimensionMismatch("automorphism matrices must be square")
        if m.rows == 3 and _is_a3_shape(m):
            return
        try:
            invert(m)
        except Singular:
            raise Singular("automorphism matrices must be invertible") from None

    @property
    def dim(self) -> int:
        return self.map.rows

    @classmethod
    def from_rows(cls, rows) -> "AutoMatrix":
        return cls(Matrix.from_rows(rows))

    @classmethod
    def identity(cls, n: int) -> "AutoMatrix":
        return cls(Matrix.identity(n))

    def inverse(self) -> "AutoMatrix":
        return AutoMatrix(invert(self.map))


def is_bracket_automorphism(b: TriBracket, m: AutoMatrix) -> CheckReport:
    """Check φ[e_i,e_j,e_k] = [φe_i, φe_j, φe_k] on all increasing triples.

    Skewness makes increasing triples exhaustive; the per-triple difference
    of the two sides is exactly the structure-constant residual of the
    automorphism condition.
    """
    if b.dim != m.dim:
        raise DimensionMismatch("bracket and map dimensions differ")
    violations = []
    images = [m.map.row(i) for i in range(b.dim)]
    for (i, j, k) in combinations(range(1, b.dim + 1), 3):
        left = bracket_eval(b, images[i - 1], images[j - 1], images[k - 1])
        right = vec_mat(b.basis_bracket(i, j, k), m.map)
        if left != right:
            violations.append(Violation((i, j, k), left, right))
    return CheckReport(tuple(violations))


def a3_automorphism_check(m: AutoMatrix) -> bool:
    """Closed-form automorphism test for the standard 3-dimensional bracket:
    Λ12 = Λ13 = 0, Λ11 ≠ 0, and Λ22·Λ33 − Λ23·Λ32 = 1."""
    if m.dim != 3:
        raise DimensionMismatch("this check is specific to dimension 3")
    return _is_a3_shape(m.map)


#: a map over one common denominator, as ``_supports`` returns it
_Support = tuple[int, list[list[tuple[int, int]]]]


def _supports(m: Matrix) -> _Support:
    """The map over one common denominator: ``(D, rows)``, where ``rows[i]``
    lists the nonzero (j, c) with Λ_ij = c/D, each c an ``int``, all
    indices 0-based, and D is the least common denominator of the entries.
    One ``as_integer_ratio`` pass over the flat entries feeds both."""
    ratios = [e.as_integer_ratio() for e in m.entries]
    den = math.lcm(*[d for _, d in ratios])
    cols = m.cols
    rows: list[list[tuple[int, int]]] = [[] for _ in range(m.rows)]
    for idx, (num, d) in enumerate(ratios):
        if num:
            i, j = divmod(idx, cols)
            rows[i].append((j, num * (den // d)))
    return den, rows


def _push(pre: list[int], image: list[list[tuple[int, int]]]) -> list[int]:
    """The coordinate list ``pre`` moved by the integer rows of a map."""
    out = [0] * len(pre)
    for t, c in enumerate(pre):
        if c:
            for k, e in image[t]:
                out[k] += c * e
    return out


def _homomorphism(p: CommProduct, m: AutoMatrix, den: int,
                  rows: list[tuple[int, ...]]) -> bool:
    """Whether φ(e_i·e_j) = φ(e_i) ∗ φ(e_j) for every basis pair i <= j, for
    the product ∗ whose pair rows, in the order of
    ``algebra._basis_pairs``, are ``rows`` over ``den``.  Nothing
    is inverted or divided.

    With the product over D_p (``_product_table``) and Λ over D
    (``_supports``), the left side is an ``int`` list over D_p·D and the
    right side one over D²·den, so each is cross-multiplied by the other's
    denominator (the common factor D cancelled): the product constants by
    D·den as they are read, and the table entries by D_p as ∗ is built.
    The two scaled lists are then compared with ``!=``.  For an invertible
    φ this holds exactly when ``transport_product(p, m)`` is ∗.
    """
    if p.dim != m.dim:
        raise DimensionMismatch("product and map dimensions differ")
    n = p.dim
    den_p, prod = _product_table(p)
    den_map, image = _supports(m.map)
    pairs = _basis_pairs(n)
    target = [[()] * n for _ in range(n)]
    for (i, j), row in zip(pairs, rows):
        scaled = []
        for t, c in enumerate(row):
            if c:
                scaled.append((t, c * den_p))
        target[i][j] = target[j][i] = scaled
    left_scale = den_map * den
    for i, j in pairs:
        left = [0] * n
        for t, c in prod[i][j]:
            c *= left_scale
            for k, e in image[t]:
                left[k] += c * e
        right = [0] * n
        for s, x in image[i]:
            row = target[s]
            for u, y in image[j]:
                xy = x * y
                for t, c in row[u]:
                    right[t] += xy * c
        if left != right:
            return False
    return True


def transport_product(p: CommProduct, m: AutoMatrix) -> CommProduct:
    """Push-forward of a commutative product along an invertible map.

    The map is inverted here, and every output pair is computed on integers
    over one denominator; ``algebra._unscaled_product`` divides each entry
    by it, once.  x ∗ y = φ(φ⁻¹(x) · φ⁻¹(y)) on basis pairs: the rows of
    Λ⁻¹ expand through the product's ``_product_table`` into a coordinate
    list, which Λ then moves.  With Λ⁻¹ over E, the product over D_p and Λ
    over D (``_supports``), each term multiplies two entries of Λ⁻¹, one
    product constant and one entry of Λ, so the denominator is E²·D_p·D.
    """
    if p.dim != m.dim:
        raise DimensionMismatch("product and map dimensions differ")
    n = p.dim
    den_p, prod = _product_table(p)
    den_pre, pre = _supports(invert(m.map))
    den_map, image = _supports(m.map)
    moved = []
    for (i, j) in _basis_pairs(n):
        value = [0] * n
        for s, x in pre[i]:
            row = prod[s]
            for u, y in pre[j]:
                xy = x * y
                for t, d in row[u]:
                    value[t] += xy * d
        moved.append(_push(value, image))
    return _unscaled_product(n, den_pre * den_pre * den_p * den_map, moved)


def transport_bracket(b: TriBracket, m: AutoMatrix) -> TriBracket:
    """Push-forward of a skew ternary bracket along an invertible map.

    The map is inverted here, by ``invert``; the bracket moves by the same
    integer expansion as in ``transport_product``, through the bracket's
    ``structure_table`` on increasing basis triples: each term
    multiplies three entries of Λ⁻¹, one structure constant and one entry
    of Λ, so an output entry is divided by E³·D_b·D once, when its
    ``Vector`` is built.
    """
    if b.dim != m.dim:
        raise DimensionMismatch("bracket and map dimensions differ")
    n = b.dim
    den_b, brk = structure_table(b)
    den_pre, pre = _supports(invert(m.map))
    den_map, image = _supports(m.map)
    den = den_pre ** 3 * den_b * den_map
    table, made = {}, {}
    for (i, j, k) in combinations(range(n), 3):
        value = [0] * n
        for s, x in pre[i]:
            for u, y in pre[j]:
                row = brk[s][u]
                xy = x * y
                for v, z in pre[k]:
                    xyz = xy * z
                    for t, d in row[v]:
                        value[t] += xyz * d
        moved = _push(value, image)
        if any(moved):
            table[(i + 1, j + 1, k + 1)] = _unscaled(moved, den, made)
    return TriBracket(n, table)
