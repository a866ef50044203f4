"""δ-derivation spaces and the space of compatible commutative products.

A linear map φ with matrix (β_ij) in the row convention φ(e_i) = Σ_j β_ij e_j
is a δ-derivation of a ternary bracket when

    φ[x,y,z] = δ([φx,y,z] + [x,φy,z] + [x,y,φz])   for all x, y, z.

On structure constants this is one homogeneous linear system in the β_ij;
δ = 1/3 characterises the left multiplications of products that make the
bracket part of a transposed Poisson structure, so the same row generator
also solves for all compatible commutative products at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .linalg import DimensionMismatch, Matrix, Vector, kernel_basis, mat_vec, rat
from .algebra import CommProduct, TriBracket, structure_table

ONE_THIRD = Fraction(1, 3)
ZERO = Fraction(0)


@dataclass(frozen=True)
class DerivationQuery:
    bracket: TriBracket
    delta: Fraction = ONE_THIRD

    def __post_init__(self):
        object.__setattr__(self, "delta", rat(self.delta))
        if self.delta == 0:
            raise ValueError("delta must be nonzero")


@dataclass(frozen=True)
class DerivationSpace:
    """Solved δ-derivation space: basis of coefficient matrices plus the
    linear system whose kernel they form."""

    dim: int
    basis: tuple[Matrix, ...]
    system: Matrix

    def contains(self, m: Matrix) -> bool:
        """Exact membership: m satisfies the derivation system."""
        if not m.is_square() or m.rows * m.cols != self.system.cols:
            raise DimensionMismatch("matrix shape differs from the solved space")
        return mat_vec(self.system, Vector(m.entries)).is_zero()


@dataclass(frozen=True)
class ProductSpace:
    """Solved space of compatible commutative products.

    ``description`` lists the free structure-constant coordinates as
    ((i, j), component) with 1-based indices, in solved order.
    """

    dim: int
    basis: tuple[CommProduct, ...]
    description: tuple[tuple[tuple[int, int], int], ...]
    system: Matrix
    _pairs: tuple[tuple[int, int], ...] = field(repr=False, default=())

    def contains(self, p: CommProduct) -> bool:
        return mat_vec(self.system, _product_to_vector(p, self._pairs)).is_zero()

    def combination(self, coeffs) -> CommProduct:
        """The element of the span with the given free-coordinate values."""
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) != len(self.basis):
            raise DimensionMismatch("one coefficient per basis element required")
        n = self.basis[0].dim if self.basis else 1
        vec = [Fraction(0)] * (len(self._pairs) * n)
        for c, prod in zip(coeffs, self.basis):
            for idx, val in enumerate(_product_to_vector(prod, self._pairs)):
                vec[idx] += c * val
        return _vector_to_product(Vector(vec), n, self._pairs)


def _derivation_rows(table, inv_delta: Fraction,
                     base: list[int], ncols: int) -> Iterator[list[Fraction]]:
    """Rows of the δ-derivation system, one per (i<j<k, t).

    ``table`` is the bracket's ``structure_table``.  The unknown β_uv
    (component v of the image of e_u, 0-based) sits at column
    ``base[u] + v``; the factor 3 of the 1/3-derivation case appears as
    ``inv_delta`` = 1/δ.
    """
    n = len(table)
    for (i, j, k) in combinations(range(n), 3):
        rows = [[ZERO] * ncols for _ in range(n)]
        for s in range(n):
            for t, c in table[s][j][k]:
                rows[t][base[i] + s] += c
            for t, c in table[i][s][k]:
                rows[t][base[j] + s] += c
            for t, c in table[i][j][s]:
                rows[t][base[k] + s] += c
        for s, c in table[i][j][k]:
            f = inv_delta * c
            for t in range(n):
                rows[t][base[s] + t] -= f
        yield from rows


def build_derivation_system(q: DerivationQuery) -> Matrix:
    """The homogeneous system M·vec(β) = 0 characterising δ-derivations.

    Unknowns are the n² entries β_uv, row-major; rows are indexed by
    increasing basis triples and output component t.
    """
    n = q.bracket.dim
    rows = list(_derivation_rows(structure_table(q.bracket), 1 / q.delta,
                                 [u * n for u in range(n)], n * n))
    if not rows:
        return Matrix.zeros(1, n * n)
    return Matrix.from_rows(rows)


def delta_derivations(q: DerivationQuery) -> DerivationSpace:
    """Kernel of the δ-derivation system, reshaped to coefficient matrices."""
    n = q.bracket.dim
    system = build_derivation_system(q)
    basis = tuple(Matrix(n, n, vec.entries) for vec in kernel_basis(system))
    return DerivationSpace(dim=len(basis), basis=basis, system=system)


def left_multiplication(p: CommProduct, i: int) -> Matrix:
    """Matrix of y ↦ e_i·y in the row convention (row j = image of e_j)."""
    if not 1 <= i <= p.dim:
        raise DimensionMismatch(f"basis index {i} out of range 1..{p.dim}")
    return Matrix.from_rows([list(p.basis_product(i, j)) for j in range(1, p.dim + 1)])


def _sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def _product_to_vector(p: CommProduct, pairs: tuple[tuple[int, int], ...]) -> Vector:
    n = p.dim
    out: list[Fraction] = []
    for (i, j) in pairs:
        out.extend(p.basis_product(i, j))
    return Vector(out)


def _vector_to_product(vec: Vector, n: int, pairs: tuple[tuple[int, int], ...]) -> CommProduct:
    table = {}
    for idx, (i, j) in enumerate(pairs):
        coeffs = Vector(vec.entries[idx * n:(idx + 1) * n])
        if not coeffs.is_zero():
            table[(i, j)] = coeffs
    return CommProduct(n, table)


def build_product_system(b: TriBracket) -> tuple[Matrix, tuple[tuple[int, int], ...]]:
    """Joint linear system for all products compatible with ``b``.

    Unknowns are the coefficients of e_i·e_j for non-decreasing (i, j) in
    lexicographic order, output component innermost.  The rows state that
    every left multiplication is a 1/3-derivation, with the symmetric
    unknown identification (e_u·e_g = e_g·e_u) substituted.
    """
    n = b.dim
    pairs = _sym_pairs(n)
    pair_index = {pair: idx for idx, pair in enumerate(pairs)}
    ncols = len(pairs) * n
    table = structure_table(b)
    rows: list[list[Fraction]] = []
    for g in range(1, n + 1):
        base = [pair_index[(min(g, u), max(g, u))] * n for u in range(1, n + 1)]
        rows.extend(_derivation_rows(table, Fraction(3), base, ncols))
    if not rows:
        return Matrix.zeros(1, ncols), pairs
    return Matrix.from_rows(rows), pairs


def tp_product_space(b: TriBracket) -> ProductSpace:
    """All commutative products making ``b`` a transposed Poisson structure.

    Solved as one joint kernel; the reduced-echelon normal form makes the
    free coordinates (and hence the basis) canonical.
    """
    n = b.dim
    system, pairs = build_product_system(b)
    kernel = kernel_basis(system)
    basis = tuple(_vector_to_product(vec, n, pairs) for vec in kernel)
    # the free column of a reduced-echelon kernel vector is its last nonzero
    free = [max(c for c, e in enumerate(vec) if e) for vec in kernel]
    description = tuple((pairs[c // n], c % n + 1) for c in free)
    return ProductSpace(dim=len(basis), basis=basis,
                        description=description, system=system,
                        _pairs=pairs)
