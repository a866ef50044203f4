"""Structure-constant tensors and exhaustive verification of defining identities.

A skew ternary bracket is stored by its coefficients on strictly increasing
basis triples; a commutative product by its coefficients on non-decreasing
basis pairs.  Skewness and symmetry are therefore structural, not checked:
evaluating a permuted triple applies the permutation sign, and a repeated
index evaluates to zero.

The identity checks run over canonical basis tuples only.  Both sides of
each identity are multilinear and skew in the appropriate slots, so basis
exhaustiveness implies the identity for all arguments; the accompanying
test suite cross-checks this reduction on random rational tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .linalg import DimensionMismatch, Vector


class ShapeMismatch(ValueError):
    """A product is outside the solved compatible-product family."""


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    if any(idx[i] == idx[i + 1] for i in range(len(idx) - 1)):
        return tuple(idx), 0
    return tuple(idx), sign


class TriBracket:
    """Skew trilinear bracket given by coefficients on increasing triples.

    ``table`` maps a strictly increasing 1-based triple (i, j, k) to the
    coefficient vector of [e_i, e_j, e_k]; absent triples are zero.

    ``_reduced`` is a per-object memo for ``tpl3.derivations``: it maps δ
    to the reduced rows and pivots of the bracket's δ-derivation system,
    ``{δ: (reduced rows, pivots)}``, and is empty until the first solve.
    It relies on ``table`` never being mutated after construction.  The
    stored rows are read-only: the solvers only read them, and build new
    rows from them.  The memo is not part of ``==``, ``hash``, ``repr`` or
    the pickled state, so a copy or an equal bracket solves again.
    """

    __slots__ = ("dim", "table", "_reduced")

    def __init__(self, dim: int, table: Mapping[tuple[int, int, int], Vector]):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        clean: dict[tuple[int, int, int], Vector] = {}
        for key, value in table.items():
            i, j, k = key
            if not (1 <= i < j < k <= dim):
                raise ValueError(f"bracket key {key} is not strictly increasing in 1..{dim}")
            if value.dim != dim:
                raise DimensionMismatch(f"coefficient vector for {key} has wrong length")
            if not value.is_zero():
                clean[(i, j, k)] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", dict(sorted(clean.items())))
        object.__setattr__(self, "_reduced", {})

    def __reduce__(self):
        return TriBracket, (self.dim, self.table)

    def basis_bracket(self, i: int, j: int, k: int) -> Vector:
        """[e_i, e_j, e_k] for arbitrary index order (sign applied)."""
        for idx in (i, j, k):
            if not 1 <= idx <= self.dim:
                raise DimensionMismatch(f"index {idx} out of range 1..{self.dim}")
        key, sign = _sort_with_sign((i, j, k))
        if sign == 0:
            return Vector.zero(self.dim)
        coeffs = self.table.get(key)
        if coeffs is None:
            return Vector.zero(self.dim)
        return coeffs if sign == 1 else -coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, TriBracket) and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.table.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"[e{i},e{j},e{k}]={v!r}" for (i, j, k), v in self.table.items())
        return f"TriBracket(dim={self.dim}, {body or 'zero'})"


class CommProduct:
    """Commutative bilinear product given by coefficients on pairs i <= j."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Vector]):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        clean: dict[tuple[int, int], Vector] = {}
        for key, value in table.items():
            i, j = key
            if not (1 <= i <= j <= dim):
                raise ValueError(f"product key {key} is not non-decreasing in 1..{dim}")
            if value.dim != dim:
                raise DimensionMismatch(f"coefficient vector for {key} has wrong length")
            if not value.is_zero():
                clean[(i, j)] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", dict(sorted(clean.items())))

    @classmethod
    def zero(cls, dim: int) -> "CommProduct":
        return cls(dim, {})

    def basis_product(self, i: int, j: int) -> Vector:
        """e_i · e_j for arbitrary index order."""
        for idx in (i, j):
            if not 1 <= idx <= self.dim:
                raise DimensionMismatch(f"index {idx} out of range 1..{self.dim}")
        coeffs = self.table.get((min(i, j), max(i, j)))
        return coeffs if coeffs is not None else Vector.zero(self.dim)

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (isinstance(other, CommProduct) and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.table.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"e{i}*e{j}={v!r}" for (i, j), v in self.table.items())
        return f"CommProduct(dim={self.dim}, {body or 'zero'})"


def a3_bracket() -> TriBracket:
    """The unique nontrivial 3-dimensional 3-Lie bracket: [e1,e2,e3] = e1."""
    return TriBracket(3, {(1, 2, 3): Vector.unit(3, 1)})


@dataclass(frozen=True)
class Violation:
    """A failed identity instance: witness index tuple plus both sides."""

    witness: tuple
    left: Vector
    right: Vector


@dataclass(frozen=True)
class CheckReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def bracket_eval(b: TriBracket, x: Vector, y: Vector, z: Vector) -> Vector:
    """Trilinear skew evaluation of the bracket on arbitrary vectors.

    Expands by 3x3 minors: the coefficient of the basis triple (i, j, k)
    in x ^ y ^ z multiplies the stored bracket value.
    """
    for v in (x, y, z):
        if v.dim != b.dim:
            raise DimensionMismatch("argument dimension differs from bracket dimension")
    total = Vector.zero(b.dim)
    for (i, j, k), coeffs in b.table.items():
        a0, a1, a2 = x[i - 1], x[j - 1], x[k - 1]
        b0, b1, b2 = y[i - 1], y[j - 1], y[k - 1]
        c0, c1, c2 = z[i - 1], z[j - 1], z[k - 1]
        minor = (a0 * (b1 * c2 - b2 * c1)
                 - a1 * (b0 * c2 - b2 * c0)
                 + a2 * (b0 * c1 - b1 * c0))
        if minor != 0:
            total = total + coeffs.scale(minor)
    return total


def product_eval(p: CommProduct, x: Vector, y: Vector) -> Vector:
    """Bilinear symmetric evaluation of the product on arbitrary vectors."""
    for v in (x, y):
        if v.dim != p.dim:
            raise DimensionMismatch("argument dimension differs from product dimension")
    total = Vector.zero(p.dim)
    for (i, j), coeffs in p.table.items():
        if i == j:
            c = x[i - 1] * y[i - 1]
        else:
            c = x[i - 1] * y[j - 1] + x[j - 1] * y[i - 1]
        if c != 0:
            total = total + coeffs.scale(c)
    return total


def structure_table(b: TriBracket) -> list[list[list[tuple[tuple[int, Fraction], ...]]]]:
    """Every basis bracket, signs applied: ``table[i][j][k]`` lists the
    nonzero (t, c) with [e_i, e_j, e_k] = Σ c e_t, all indices 0-based.

    Filled straight from the stored increasing triples: each one writes its
    three even permutations with +c and its three odd ones with −c, and
    every other cell (a repeated index or an absent triple) stays empty.
    Built once per call of a routine that reads many basis brackets, so
    their inner loops index a list instead of sorting indices and
    allocating a ``Vector`` per term.
    """
    n = b.dim
    table = [[[()] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), coeffs in b.table.items():
        even = tuple((t, c) for t, c in enumerate(coeffs) if c)
        odd = tuple((t, -c) for t, c in even)
        i, j, k = i - 1, j - 1, k - 1
        table[i][j][k] = table[j][k][i] = table[k][i][j] = even
        table[j][i][k] = table[i][k][j] = table[k][j][i] = odd
    return table


def _product_table(p: CommProduct) -> list[list[tuple[tuple[int, Fraction], ...]]]:
    """Every basis product: ``table[i][j]`` lists the nonzero (t, c) with
    e_i·e_j = Σ c e_t, all indices 0-based."""
    n = p.dim
    table = [[()] * n for _ in range(n)]
    for (i, j), coeffs in p.table.items():
        table[i - 1][j - 1] = table[j - 1][i - 1] = tuple(
            (t, c) for t, c in enumerate(coeffs) if c)
    return table


def check_fundamental_identity(b: TriBracket) -> CheckReport:
    """Check [[x,y,z],u,v] = [[x,u,v],y,z] + [[y,u,v],z,x] + [[z,u,v],x,y].

    Runs over basis tuples with x < y < z and u < v; multilinearity and
    skewness of both sides make this exhaustive.  Both sides expand by
    linearity in the first slot over the structure-constant table.
    """
    n = b.dim
    table = structure_table(b)
    violations = []
    for (x, y, z) in combinations(range(n), 3):
        for (u, v) in combinations(range(n), 2):
            left = [0] * n
            for s, c in table[x][y][z]:
                for t, d in table[s][u][v]:
                    left[t] += c * d
            right = [0] * n
            for a, p, q in ((x, y, z), (y, z, x), (z, x, y)):
                for s, c in table[a][u][v]:
                    for t, d in table[s][p][q]:
                        right[t] += c * d
            if left != right:
                violations.append(Violation((x + 1, y + 1, z + 1, u + 1, v + 1),
                                            Vector(left), Vector(right)))
    return CheckReport(tuple(violations))


def check_transposed_leibniz(b: TriBracket, p: CommProduct) -> CheckReport:
    """Check 3 u·[x,y,z] = [u·x,y,z] + [x,u·y,z] + [x,y,u·z].

    Runs over all basis u and basis triples x < y < z (exhaustive by
    multilinearity and skewness in x, y, z).  Both sides expand by
    linearity over the bracket's ``structure_table`` and the product's
    table of basis products.
    """
    if b.dim != p.dim:
        raise DimensionMismatch("bracket and product dimensions differ")
    n = b.dim
    table = structure_table(b)
    prod = _product_table(p)
    violations = []
    for u in range(n):
        for (x, y, z) in combinations(range(n), 3):
            left = [0] * n
            for s, c in table[x][y][z]:
                for t, d in prod[u][s]:
                    left[t] += 3 * c * d
            right = [0] * n
            for s, c in prod[u][x]:
                for t, d in table[s][y][z]:
                    right[t] += c * d
            for s, c in prod[u][y]:
                for t, d in table[x][s][z]:
                    right[t] += c * d
            for s, c in prod[u][z]:
                for t, d in table[x][y][s]:
                    right[t] += c * d
            if left != right:
                violations.append(Violation((u + 1, x + 1, y + 1, z + 1),
                                            Vector(left), Vector(right)))
    return CheckReport(tuple(violations))


def check_commutative_associative(p: CommProduct) -> CheckReport:
    """Exhaustive associativity; commutativity is structural (products are
    stored on non-decreasing pairs), so it needs no check.

    Associativity is checked on all basis triples: (e_i·e_j)·e_k = e_i·(e_j·e_k).
    Both sides expand by linearity over the product's table of basis
    products.
    """
    n = p.dim
    prod = _product_table(p)
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [0] * n
                for s, c in prod[i][j]:
                    for t, d in prod[s][k]:
                        left[t] += c * d
                right = [0] * n
                for s, c in prod[j][k]:
                    for t, d in prod[i][s]:
                        right[t] += c * d
                if left != right:
                    violations.append(Violation((i + 1, j + 1, k + 1),
                                                Vector(left), Vector(right)))
    return CheckReport(tuple(violations))


@dataclass(frozen=True)
class FamilyCoordinates:
    """The nine free structure constants of a compatible product on the
    standard 3-dimensional bracket.

    The solved family is::

        e1·e1 = 0
        e1·e2 = ((a + w) / 2) e1
        e1·e3 = ((r + t) / 2) e1
        e2·e2 = g e1 + a e2 + q e3
        e2·e3 = h e1 + r e2 + w e3
        e3·e3 = k e1 + s e2 + t e3

    so a product in the family is determined by (g, a, q, h, r, w, k, s, t).
    """

    g: Fraction
    a: Fraction
    q: Fraction
    h: Fraction
    r: Fraction
    w: Fraction
    k: Fraction
    s: Fraction
    t: Fraction

    def as_product(self) -> CommProduct:
        half = Fraction(1, 2)
        table = {
            (1, 2): Vector([(self.a + self.w) * half, 0, 0]),
            (1, 3): Vector([(self.r + self.t) * half, 0, 0]),
            (2, 2): Vector([self.g, self.a, self.q]),
            (2, 3): Vector([self.h, self.r, self.w]),
            (3, 3): Vector([self.k, self.s, self.t]),
        }
        return CommProduct(3, table)


def family_coordinates(p: CommProduct) -> FamilyCoordinates:
    """Extract the solved-family coordinates of ``p``; raise ShapeMismatch
    when ``p`` is not of the solved compatible-product shape."""
    if p.dim != 3:
        raise ShapeMismatch(f"expected dimension 3, got {p.dim}")
    s22 = p.basis_product(2, 2)
    s23 = p.basis_product(2, 3)
    s33 = p.basis_product(3, 3)
    coords = FamilyCoordinates(
        g=s22[0], a=s22[1], q=s22[2],
        h=s23[0], r=s23[1], w=s23[2],
        k=s33[0], s=s33[1], t=s33[2],
    )
    if p != coords.as_product():
        raise ShapeMismatch(
            "product is outside the compatible family: e1·e1 must vanish, "
            "e1·e2 = ((a+w)/2) e1 and e1·e3 = ((r+t)/2) e1 must hold"
        )
    return coords


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
