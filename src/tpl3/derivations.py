"""δ-derivation spaces and the space of compatible commutative products.

A linear map φ with matrix (β_ij) in the row convention φ(e_i) = Σ_j β_ij e_j
is a δ-derivation of a ternary bracket when

    φ[x,y,z] = δ([φx,y,z] + [x,φy,z] + [x,y,φz])   for all x, y, z.

On structure constants this is one homogeneous linear system in the β_ij;
δ = 1/3 characterises the left multiplications of products that make the
bracket part of a transposed Poisson structure, so the same rows also
solve for all compatible commutative products at once.

``_derivation_rows`` is the one row generator: it reads the bracket's
``structure_table`` and yields sparse integer rows, ``{column: value}``,
each a nonzero multiple of the rational row (see its docstring).  The
solvers eliminate them with ``linalg._reduce``, which returns normal
integer rows, and read their bases from the sparse kernel rows of
``linalg._kernel``, the one place a rational is formed; no dense system is
built on the solve path.  ``_reduced_rows`` is the one place that
eliminates a bracket's δ-derivation rows, once per bracket object and δ,
so ``delta_derivations``, ``DerivationSpace.contains`` and
``tp_product_space`` on one bracket share one elimination.
``ProductSpace.contains`` checks the coupling identity, which is what the
product rows state.  The dense definitions of both systems, and of a left
multiplication, are test oracles in ``tests/oracles.py``.

The product space is solved in two stages.  The 1/3-derivation rows of the
bracket (C(n,3)·n rows over n² columns) are reduced by ``_reduced_rows`` to
normal integer rows; then ``_moved_rows`` gives each left multiplication
L_g a copy of those rows, moved into the column blocks of the products
e_g·e_u, and those n·rank rows, still normal, go straight into
``linalg._eliminate``.  The dense product system of the tests moves the
raw rows the same way, so the two differ only in raw against reduced rows.
Reduction keeps a row space and moving columns is linear, so both stacks
span one row space.  A row space has one reduced row echelon form, so both
give the same pivots, free coordinates and basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .linalg import (DimensionMismatch, Matrix, Vector, _densify, _eliminate, _kernel,
                     _reduce, rat)
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
    """Solved δ-derivation space: a basis of coefficient matrices of the
    kernel of the δ-derivation system of ``query``."""

    dim: int
    basis: tuple[Matrix, ...]
    query: DerivationQuery = field(repr=False)

    def contains(self, m: Matrix) -> bool:
        """Exact membership: m satisfies every reduced row the space was
        solved from, which span the rows of the derivation system."""
        n = self.query.bracket.dim
        if not m.is_square() or m.rows != n:
            raise DimensionMismatch("matrix shape differs from the solved space")
        return _annihilates(_reduced_rows(self.query)[0], m.entries)


@dataclass(frozen=True)
class ProductSpace:
    """Solved space of compatible commutative products of ``bracket``.

    ``description`` lists the free structure-constant coordinates as
    ((i, j), component) with 1-based indices, in solved order.
    """

    dim: int
    basis: tuple[CommProduct, ...]
    description: tuple[tuple[tuple[int, int], int], ...]
    bracket: TriBracket = field(repr=False)

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


def _derivation_rows(query: DerivationQuery) -> Iterator[dict[int, int]]:
    """Sparse integer rows ``{column: value}`` of the δ-derivation system of
    ``query``, one per (i<j<k, t), all-zero rows included.

    The unknown β_uv (component v of the image of e_u, 0-based) sits at
    column u·n + v.  With δ = p/q in lowest terms and the bracket's
    ``structure_table`` scaled by D, each row is D·p times the row of
    [φx,y,z] + [x,φy,z] + [x,y,φz] − (1/δ)·φ[x,y,z]: p times the bracket
    terms minus q times the coefficient c of φ[x,y,z].  D·p ≠ 0, so the row
    space, and with it the reduced rows, pivots and kernel, are those of
    the rational system.
    """
    _, table = structure_table(query.bracket)
    p, q = query.delta.numerator, query.delta.denominator
    n = len(table)
    for (i, j, k) in combinations(range(n), 3):
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for s in range(n):
            for col, cell in ((i * n + s, table[s][j][k]),
                              (j * n + s, table[i][s][k]),
                              (k * n + s, table[i][j][s])):
                for t, c in cell:
                    row = rows[t]
                    row[col] = row.get(col, 0) + p * c
        for s, c in table[i][j][k]:
            f = q * c
            for t in range(n):
                row, col = rows[t], s * n + t
                row[col] = row.get(col, 0) - f
        yield from rows


def _annihilates(rows: Iterable[dict[int, int]],
                 x: Sequence[Fraction]) -> bool:
    """Whether every sparse row has zero dot product with ``x``."""
    return all(sum(c * x[j] for j, c in row.items()) == 0 for row in rows)


def _reduced_rows(q: DerivationQuery
                  ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The reduced rows and pivots of the δ-derivation system of ``q``.

    The bracket's ``_reduced`` memo maps δ to ``(rows, pivots)``, the
    output of ``_reduce`` on ``_derivation_rows``: sparse normal integer
    rows ``{column: value}`` in ascending columns, with content 1, a
    positive pivot entry first and zero at every other pivot column, in
    pivot order.  The rows are eliminated once per bracket object and δ and
    then read from the memo, which only gains entries; any two writers
    store equal values.  Callers must not mutate the returned rows.
    """
    memo = q.bracket._reduced
    if q.delta not in memo:
        memo[q.delta] = _reduce(_derivation_rows(q))
    return memo[q.delta]


def delta_derivations(q: DerivationQuery) -> DerivationSpace:
    """Kernel of the δ-derivation system, reshaped to coefficient matrices.

    The reduced rows come from ``_reduced_rows``, so the elimination is
    shared with any earlier solve of the same bracket object at the same
    δ, ``tp_product_space`` included at δ = 1/3.
    """
    n = q.bracket.dim
    basis = tuple(Matrix(n, n, _densify(vec, n * n))
                  for vec in _kernel(*_reduced_rows(q), n * n))
    return DerivationSpace(dim=len(basis), basis=basis, query=q)


def _sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def _moved_rows(rows: Sequence[dict[int, int]], n: int,
                pairs: tuple[tuple[int, int], ...]) -> Iterator[dict[int, int]]:
    """Each derivation row once per left multiplication L_g, g = 1..n, as a
    new dict: β_uv moves to component v of e_g·e_u, in the block of the
    pair (min(g, u), max(g, u)), so e_u·e_g = e_g·e_u share one block.
    For a fixed g the column map is strictly increasing and the values are
    not touched, so a copy of a normal integer row is a normal integer
    row."""
    pair_index = {pair: idx for idx, pair in enumerate(pairs)}
    for g in range(1, n + 1):
        col = [pair_index[(min(g, u), max(g, u))] * n + v
               for u in range(1, n + 1) for v in range(n)]
        for row in rows:
            yield {col[c]: e for c, e in row.items()}


def tp_product_space(b: TriBracket) -> ProductSpace:
    """All commutative products making ``b`` a transposed Poisson structure.

    The two-stage solve of the module docstring: the reduced 1/3-derivation
    rows of ``b``, moved by ``_moved_rows``, are eliminated again as they
    are, with no further normalisation.  The free coordinates are the
    non-pivot columns, ascending, and each basis product is read from its
    sparse kernel row, grouped by pair.
    """
    n = b.dim
    pairs = _sym_pairs(n)
    ncols = len(pairs) * n
    rows = _reduced_rows(DerivationQuery(b))[0]
    reduced, pivots = _eliminate(_moved_rows(rows, n, pairs))
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
