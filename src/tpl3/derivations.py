"""δ-derivation spaces and the space of compatible commutative products.

A linear map φ with matrix (β_ij) in the row convention φ(e_i) = Σ_j β_ij e_j
is a δ-derivation of a ternary bracket when

    φ[x,y,z] = δ([φx,y,z] + [x,φy,z] + [x,y,φz])   for all x, y, z.

On structure constants this is one homogeneous linear system in the β_ij;
δ = 1/3 characterises the left multiplications of products that make the
bracket part of a transposed Poisson structure, so the same row generator
also solves for all compatible commutative products at once.

The row generator reads the bracket's ``structure_table`` and yields sparse
rows, ``{column: value}``.  The solvers eliminate those rows directly with
``linalg._reduce`` and read their bases from the sparse kernel rows of
``linalg._kernel``, so no dense system is built on the solve path.
``_reduced_rows`` is the one place that eliminates a bracket's δ-derivation
rows: it keeps the reduced rows on the bracket object, keyed by δ, so
``delta_derivations`` and ``tp_product_space`` called on one bracket share
one elimination.
``DerivationSpace.contains`` evaluates the rows; ``ProductSpace.contains``
checks the coupling identity, which is what the product rows state.  The
``system`` attribute of a solved space is the same rows as a dense
``Matrix``; it is built from the bracket by ``build_derivation_system`` or
``build_product_system`` the first time it is read.

The product space is solved in two stages.  The 1/3-derivation rows of the
bracket (C(n,3)·n rows over n² columns) are reduced once, by the same
``_reduced_rows`` that ``delta_derivations`` reads at δ = 1/3; then each left
multiplication L_g takes a copy of the reduced rows, moved into the column
blocks of the products e_g·e_u, and those n·rank rows are reduced again.
Reduction keeps a row space and moving columns is linear, so the stacked
copies span the same row space as ``build_product_system``, which stacks n
copies of the raw rows.  A row space has one reduced row echelon form, so
both give the same pivots, free coordinates and basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .linalg import (DimensionMismatch, Matrix, Vector, _densify, _kernel, _reduce,
                     rat)
from .algebra import CommProduct, TriBracket, check_transposed_leibniz, structure_table

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
    linear system whose kernel they form.

    The solver never builds ``system`` as a dense matrix; it is built from
    ``query`` by ``build_derivation_system`` when first read and then kept.
    """

    dim: int
    basis: tuple[Matrix, ...]
    query: DerivationQuery = field(repr=False)

    @cached_property
    def system(self) -> Matrix:
        return build_derivation_system(self.query)

    def contains(self, m: Matrix) -> bool:
        """Exact membership: m satisfies every row of the derivation system."""
        n = self.query.bracket.dim
        if not m.is_square() or m.rows != n:
            raise DimensionMismatch("matrix shape differs from the solved space")
        return _annihilates(_query_rows(self.query), m.entries)


@dataclass(frozen=True)
class ProductSpace:
    """Solved space of compatible commutative products of ``bracket``.

    ``description`` lists the free structure-constant coordinates as
    ((i, j), component) with 1-based indices, in solved order.  The solver
    never builds ``system`` as a dense matrix; it is built from ``bracket``
    by ``build_product_system`` when first read and then kept.
    """

    dim: int
    basis: tuple[CommProduct, ...]
    description: tuple[tuple[tuple[int, int], int], ...]
    bracket: TriBracket = field(repr=False)

    @cached_property
    def system(self) -> Matrix:
        return build_product_system(self.bracket)[0]

    def contains(self, p: CommProduct) -> bool:
        """Exact membership: the rows of the product system state that every
        left multiplication of p is a 1/3-derivation, which is the coupling
        identity.  A product of another dimension raises DimensionMismatch."""
        return check_transposed_leibniz(self.bracket, p).passed

    def combination(self, coeffs) -> CommProduct:
        """The element of the span with the given free-coordinate values."""
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) != len(self.basis):
            raise DimensionMismatch("one coefficient per basis element required")
        table: dict[tuple[int, int], Vector] = {}
        for c, prod in zip(coeffs, self.basis):
            for pair, vec in prod.table.items():
                term = vec.scale(c)
                table[pair] = table[pair] + term if pair in table else term
        return CommProduct(self.bracket.dim, table)


def _derivation_rows(table, inv_delta: Fraction,
                     base: list[int]) -> Iterator[dict[int, Fraction]]:
    """Sparse rows ``{column: value}`` of the δ-derivation system, one per
    (i<j<k, t), all-zero rows included.

    ``table`` is the bracket's ``structure_table``.  The unknown β_uv
    (component v of the image of e_u, 0-based) sits at column
    ``base[u] + v``; the factor 3 of the 1/3-derivation case appears as
    ``inv_delta`` = 1/δ.
    """
    n = len(table)
    for (i, j, k) in combinations(range(n), 3):
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for s in range(n):
            for col, cell in ((base[i] + s, table[s][j][k]),
                              (base[j] + s, table[i][s][k]),
                              (base[k] + s, table[i][j][s])):
                for t, c in cell:
                    row = rows[t]
                    row[col] = row.get(col, ZERO) + c
        for s, c in table[i][j][k]:
            f = inv_delta * c
            for t in range(n):
                row, col = rows[t], base[s] + t
                row[col] = row.get(col, ZERO) - f
        yield from rows


def _annihilates(rows: Iterable[dict[int, Fraction]],
                 x: Sequence[Fraction]) -> bool:
    """Whether every sparse row has zero dot product with ``x``."""
    return all(sum(c * x[j] for j, c in row.items()) == 0 for row in rows)


def _dense(rows: Iterable[dict[int, Fraction]], ncols: int) -> Matrix:
    """The sparse rows as a ``Matrix``; one zero row when there are none."""
    dense = [[row.get(j, ZERO) for j in range(ncols)] for row in rows]
    return Matrix.from_rows(dense) if dense else Matrix.zeros(1, ncols)


def _query_rows(q: DerivationQuery) -> Iterator[dict[int, Fraction]]:
    """Sparse rows of the δ-derivation system of ``q``, unknowns row-major."""
    n = q.bracket.dim
    return _derivation_rows(structure_table(q.bracket), 1 / q.delta,
                            [u * n for u in range(n)])


def build_derivation_system(q: DerivationQuery) -> Matrix:
    """The homogeneous system M·vec(β) = 0 characterising δ-derivations.

    Unknowns are the n² entries β_uv, row-major; rows are indexed by
    increasing basis triples and output component t.  This is the dense
    form of the sparse rows that ``delta_derivations`` eliminates.
    """
    n = q.bracket.dim
    return _dense(_query_rows(q), n * n)


def _reduced_rows(q: DerivationQuery
                  ) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """The reduced rows and pivots of the δ-derivation system of ``q``.

    Eliminated once per bracket object and δ, then read from the bracket's
    ``_reduced`` memo; callers must not mutate the returned rows.
    """
    memo = q.bracket._reduced
    if q.delta not in memo:
        memo[q.delta] = _reduce(_query_rows(q))
    return memo[q.delta]


def delta_derivations(q: DerivationQuery) -> DerivationSpace:
    """Kernel of the δ-derivation system, reshaped to coefficient matrices.

    The system's sparse rows go straight into the elimination; no dense
    matrix is built.  The reduced rows come from ``_reduced_rows``, so the
    elimination is shared with any earlier solve of the same bracket object
    at the same δ, ``tp_product_space`` included at δ = 1/3.
    """
    n = q.bracket.dim
    basis = tuple(Matrix(n, n, _densify(vec, n * n))
                  for vec in _kernel(*_reduced_rows(q), n * n))
    return DerivationSpace(dim=len(basis), basis=basis, query=q)


def left_multiplication(p: CommProduct, i: int) -> Matrix:
    """Matrix of y ↦ e_i·y in the row convention (row j = image of e_j)."""
    if not 1 <= i <= p.dim:
        raise DimensionMismatch(f"basis index {i} out of range 1..{p.dim}")
    return Matrix.from_rows([list(p.basis_product(i, j)) for j in range(1, p.dim + 1)])


def _sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def _left_bases(n: int, pairs: tuple[tuple[int, int], ...]) -> Iterator[list[int]]:
    """For each g = 1..n, the column base of each unknown row of the left
    multiplication L_g: row u of L_g is e_g·e_u, the block of the pair
    (min(g, u), max(g, u)), so e_u·e_g = e_g·e_u share one column block."""
    pair_index = {pair: idx for idx, pair in enumerate(pairs)}
    for g in range(1, n + 1):
        yield [pair_index[(min(g, u), max(g, u))] * n for u in range(1, n + 1)]


def build_product_system(b: TriBracket) -> tuple[Matrix, tuple[tuple[int, int], ...]]:
    """Joint linear system for all products compatible with ``b``.

    Unknowns are the coefficients of e_i·e_j for non-decreasing (i, j) in
    lexicographic order, output component innermost.  The rows state that
    every left multiplication is a 1/3-derivation, with the symmetric
    unknown identification (e_u·e_g = e_g·e_u) substituted.  This is the
    public definition of the space; ``tp_product_space`` solves an
    equivalent, smaller system.
    """
    pairs = _sym_pairs(b.dim)
    table = structure_table(b)
    rows = (row for base in _left_bases(b.dim, pairs)
            for row in _derivation_rows(table, Fraction(3), base))
    return _dense(rows, len(pairs) * b.dim), pairs


def tp_product_space(b: TriBracket) -> ProductSpace:
    """All commutative products making ``b`` a transposed Poisson structure.

    Solved in two eliminations, with no dense matrix built.  The first
    reduces the 1/3-derivation rows of ``b`` (C(n,3)·n rows over the n²
    unknowns β_uv); it is ``_reduced_rows`` at δ = 1/3, so it runs once per
    bracket object and is shared with ``delta_derivations``.  Each left
    multiplication L_g then takes a copy of the reduced rows, with β_uv
    moved to the column of component v of e_g·e_u; the second elimination
    reduces those n·rank rows, in new dicts, so the shared rows stay as
    they are.  The reduced rows span the same row space as the raw
    derivation rows, and moving columns is linear, so the stacked copies
    span the row space of ``build_product_system``.  A row space has one
    reduced row echelon form, so the pivots, and with them the free
    coordinates (the non-pivot columns, ascending) and the basis, are those
    of the joint system.  Each basis product is read from its sparse kernel
    row, grouped by pair.
    """
    n = b.dim
    pairs = _sym_pairs(n)
    ncols = len(pairs) * n
    derivation_rows = _reduced_rows(DerivationQuery(b))[0]
    moved = ([base[u] + v for u in range(n) for v in range(n)]
             for base in _left_bases(n, pairs))
    reduced, pivots = _reduce({col[c]: e for c, e in row.items()}
                              for col in moved for row in derivation_rows)
    basis = []
    for vec in _kernel(reduced, pivots, ncols):
        table: dict[tuple[int, int], list[Fraction]] = {}
        for c, e in vec.items():
            table.setdefault(pairs[c // n], [ZERO] * n)[c % n] = e
        basis.append(CommProduct(n, {pair: Vector(coeffs)
                                     for pair, coeffs in table.items()}))
    pivot_set = set(pivots)
    description = tuple((pairs[c // n], c % n + 1)
                        for c in range(ncols) if c not in pivot_set)
    return ProductSpace(dim=len(basis), basis=tuple(basis),
                        description=description, bracket=b)
