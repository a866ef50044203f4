"""δ-derivation spaces and the space of compatible commutative products.

A linear map φ with matrix (β_ij) in the row convention φ(e_i) = Σ_j β_ij e_j
is a δ-derivation of a ternary bracket when

    φ[x,y,z] = δ([φx,y,z] + [x,φy,z] + [x,y,φz])   for all x, y, z.

On structure constants this is one homogeneous linear system in the β_ij;
δ = 1/3 characterises the left multiplications of products that make the
bracket part of a transposed Poisson structure, so the same rows also
solve for all compatible commutative products at once.

``_derivation_rows`` is the one row generator: it reads the bracket's
``structure_table`` and yields the nonzero sparse integer rows,
``{column: value}``, each a nonzero multiple of the rational row (see its
docstring).  The solvers eliminate them, and the moved rows of the
product stage, with ``linalg._reduce``, which returns normal integer rows,
and read their bases from the sparse kernel rows of
``linalg._kernel``, the one place a rational is formed; no dense system is
built on the solve path.  The basis matrices and products are built from
those rationals as they are, through ``_Record._from_fields``, with no
second pass through ``rat``; a product pair that holds a single 1 is the
shared unit vector of ``_unit_vectors``.
``_reduced_rows`` is the one place that eliminates a bracket's
δ-derivation rows, once per bracket object and δ, so ``delta_derivations``,
``DerivationSpace.contains`` and ``tp_product_space`` on one bracket share
one elimination.  ``ProductSpace.contains`` checks the coupling identity,
which is what the product rows state.  The dense definitions of both
systems, and of a left multiplication, are test oracles in
``tests/oracles.py``.

Both eliminations presolve their singleton rows by one lemma.  Lemma: let
a row space be spanned by the unit rows e_c of a set K of killed columns
and by rows that are zero at every column of K.  Eliminating those other
rows alone gives reduced rows that are zero at K too, so they and the
unit rows, in pivot order, are a reduced row echelon form of the whole
space; a row space has exactly one, so the pivots, free columns and
kernel are those of the joint elimination, and a killed column is a
pivot, zero in every kernel vector.  Dropping the entry of a killed
column from any row subtracts a multiple of a unit row, which keeps the
row space, so the other rows may be shortened to satisfy the lemma.

Stage 1, ``_reduced_rows``: a singleton δ-derivation row holds as
β_uv = 0, a unit row; its column is killed and dropped from the other
rows R, and only those are eliminated.  Lemma (the modular rank bound,
Dixon 1982): the rank of integer rows mod a prime is at most their rank
over ℚ, since a minor that is nonzero mod p is a nonzero integer.  R
lives on the n² − |K| columns outside the killed ones K, and at δ = 1/3
the identity is a 1/3-derivation, whose vec(I) is zero at K and in R's
kernel; so the rank of R over ℚ is at most t = n² − [δ = 1/3] − |K|.
For n ≥ 2, R reaches t only if it touches every column outside K: on the
touched columns T its rank is at most |T| − 1 when T holds a diagonal
column (vec(I) restricted to T is in the kernel), else at most
|T| ≤ n² − n − |K|, and at any other δ at most |T|.  So when R has
at least t rows and touches every column outside K, a rank pass mod p
that reaches t proves the rank over ℚ is t, and the reduced rows have a
closed form; a shortfall proves nothing, and the exact elimination
``_reduce`` runs.  Stage 2, the
product space: the reduced 1/3-derivation rows (at most n² − 1 rows over
n² columns) are moved into the product columns.  Every left
multiplication L_g of a compatible product is a 1/3-derivation with
β_uv = (e_g·e_u)_v, so each reduced row, moved into the column blocks of
the products e_g·e_u, is a row of the product system, once per g.  A
singleton reduced row β_uv = 0 holds for every 1/3-derivation, so
(e_g·e_u)_v = 0 for every g in every compatible product: its n moved
copies are the unit rows of the killed columns
c = pair(min(g, u), max(g, u))·n + v.  ``_moved_rows`` moves only the
other rows, drops the killed columns from each copy and renumbers the
surviving columns in order, and ``linalg._reduce`` reduces those
copies.  Reduction keeps a row space and moving columns is linear, so
the moved reduced rows span the rows of the dense product system of the
tests, which moves every raw row and presolves nothing; by the lemma both
give the same pivots, free coordinates and basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .linalg import (_ONE, _ZERO, DimensionMismatch, Matrix, Vector, _Record, _densify,
                     _kernel, _rank_mod_p, _reduce, rat)
from .algebra import (CommProduct, TriBracket, _basis_pairs, check_transposed_leibniz,
                      structure_table)

ONE_THIRD = Fraction(1, 3)


class DerivationQuery(_Record):
    __slots__ = ("bracket", "delta")

    def __init__(self, bracket: TriBracket, delta: Fraction = ONE_THIRD):
        delta = rat(delta)
        if delta == 0:
            raise ValueError("delta must be nonzero")
        self._store(self, bracket, delta)


class DerivationSpace(_Record, hidden=("query",)):
    """Solved δ-derivation space: a basis of coefficient matrices of the
    kernel of the δ-derivation system of ``query``, which the ``repr``
    leaves out."""

    __slots__ = ("dim", "basis", "query")

    def contains(self, m: Matrix) -> bool:
        """Exact membership: m satisfies every reduced row the space was
        solved from, which span the rows of the derivation system."""
        n = self.query.bracket.dim
        if not m.is_square() or m.rows != n:
            raise DimensionMismatch("matrix shape differs from the solved space")
        return _annihilates(_reduced_rows(self.query)[0], m.entries)


class ProductSpace(_Record, hidden=("bracket",)):
    """Solved space of compatible commutative products of ``bracket``,
    which the ``repr`` leaves out.

    ``description`` lists the free structure-constant coordinates as
    ((i, j), component) with 1-based indices, in solved order.
    """

    __slots__ = ("dim", "basis", "description", "bracket")

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
    ``query``, one per (i<j<k, t), all-zero rows left out; every stored
    entry is nonzero, so a row of length 1 is a singleton β_uv = 0.

    The unknown β_uv (component v of the image of e_u, 0-based) sits at
    column u·n + v.  With δ = p/q in lowest terms and the bracket's
    ``structure_table`` scaled by D, each row is D·p times the row of
    [φx,y,z] + [x,φy,z] + [x,y,φz] − (1/δ)·φ[x,y,z]: p times the bracket
    terms minus q times the coefficient c of φ[x,y,z].  D·p ≠ 0, so the row
    space, and with it the reduced rows, pivots and kernel, are those of
    the rational system.

    The rows of (i, j, k) read [e_s,e_j,e_k], [e_i,e_s,e_k], [e_i,e_j,e_s]
    and [e_i,e_j,e_k], so they all vanish unless a stored triple holds two
    of i, j, k (the triple itself among them).  Each stored triple lists,
    for each of its three pairs (a, b), its third index s with the cell
    [e_s,e_a,e_b]; so the rows read only those nonempty cells, as
    [e_i,e_s,e_k] = −[e_s,e_i,e_k] and [e_i,e_j,e_s] = [e_s,e_i,e_j], and
    the triples with no listed pair are skipped.  Entries that cancel are
    dropped, and so is a row whose entries all cancel.  Zero rows add
    nothing to the row space.
    """
    _, table = structure_table(query.bracket)
    p, q = query.delta.numerator, query.delta.denominator
    n = len(table)
    partners: dict[tuple[int, int], list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
    for (i, j, k) in query.bracket.table:
        i, j, k = i - 1, j - 1, k - 1
        for s, a, b in ((i, j, k), (j, i, k), (k, i, j)):
            partners.setdefault((a, b), []).append((s, table[s][a][b]))
    for (i, j, k) in combinations(range(n), 3):
        if (j, k) not in partners and (i, k) not in partners and (i, j) not in partners:
            continue
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for base, sign, pair in ((i * n, p, (j, k)), (j * n, -p, (i, k)), (k * n, p, (i, j))):
            for s, cell in partners.get(pair, ()):
                col = base + s
                for t, c in cell:
                    row = rows[t]
                    row[col] = row.get(col, 0) + sign * c
        for s, c in table[i][j][k]:
            f = q * c
            for t in range(n):
                row, col = rows[t], s * n + t
                row[col] = row.get(col, 0) - f
        for row in rows:
            if not all(row.values()):
                row = {c: e for c, e in row.items() if e}
            if row:
                yield row


def _annihilates(rows: Iterable[dict[int, int]],
                 x: Sequence[Fraction]) -> bool:
    """Whether every sparse row has zero dot product with ``x``."""
    return all(sum(c * x[j] for j, c in row.items()) == 0 for row in rows)


def _reduced_rows(q: DerivationQuery
                  ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The reduced rows and pivots of the δ-derivation system of ``q``.

    The bracket's ``_reduced`` memo, created here on the first solve,
    maps δ to ``(rows, pivots)``, the output of ``_reduce`` on
    ``_derivation_rows``: sparse normal integer rows ``{column: value}``
    in ascending columns, with content 1, a positive pivot entry first and
    zero at every other pivot column, in pivot order.  The rows are
    eliminated once per bracket object and δ and then read from the memo,
    which only gains entries; any two writers store equal values.  Callers
    must not mutate the returned rows.

    The singleton rows are presolved by the lemma of the module docstring:
    their columns are killed, and the other rows lose those columns.  There
    are two exits.  When the rows pass the gate of the module docstring
    and ``_rank_mod_p`` reaches the target t, the whole system has rank
    r = t + |K| = n² − [δ = 1/3], and its reduced rows are written in
    closed form with no exact pass.  Else ``_reduce`` eliminates the rows,
    and the unit rows {c: 1} of the killed columns are merged into its
    reduced rows in pivot order.

    The closed form: a rank of n² at δ ≠ 1/3 leaves the zero space, whose
    reduced rows are the unit rows.  A rank of n² − 1 at δ = 1/3 leaves
    the line through vec(I), with a 1 at each u·n + u (φ[x,y,z] = [x,y,z]
    = (1/3)·3[x,y,z]).  A free column is the last nonzero coordinate of
    its kernel vector, so the one free column is n² − 1, the pivots are
    0..n² − 2, and the reduced row of pivot c is e_c − I_c·e_{n²−1}, since
    it annihilates vec(I): {c: 1} for each off-diagonal c and
    {u·n + u: 1, n² − 1: −1} for each u < n − 1.  So the rows are {c: 1}
    for c < r, with −1 at n² − 1 on the diagonal columns when r = n² − 1.
    Those are normal integer rows, and a row space has one reduced row
    echelon form, so they are what ``_reduce`` would return.
    """
    memo = q.bracket._reduced
    if memo is None:
        memo = {}
        object.__setattr__(q.bracket, "_reduced", memo)
    if q.delta not in memo:
        rows = list(_derivation_rows(q))
        killed = {c for row in rows if len(row) == 1 for c in row}
        if killed:
            rows = [{c: e for c, e in row.items() if c not in killed}
                    for row in rows if len(row) > 1]
        n = q.bracket.dim
        last = n * n - 1
        target = n * n - (q.delta == ONE_THIRD) - len(killed)
        if (len(rows) >= target
                and len({c for row in rows for c in row}) + len(killed) == n * n
                and _rank_mod_p(rows, n * n, target) == target):
            rank = target + len(killed)
            memo[q.delta] = ([{c: 1, last: -1} if rank == last and c % (n + 1) == 0 else {c: 1}
                              for c in range(rank)], tuple(range(rank)))
        else:
            reduced, pivots = _reduce(rows)
            by_pivot = dict(zip(pivots, reduced))
            by_pivot.update((c, {c: 1}) for c in killed)
            order = sorted(by_pivot)
            memo[q.delta] = [by_pivot[c] for c in order], tuple(order)
    return memo[q.delta]


def delta_derivations(q: DerivationQuery) -> DerivationSpace:
    """Kernel of the δ-derivation system, reshaped to coefficient matrices.

    The reduced rows come from ``_reduced_rows``, so the elimination is
    shared with any earlier solve of the same bracket object at the same
    δ, ``tp_product_space`` included at δ = 1/3.
    """
    n = q.bracket.dim
    basis = tuple(Matrix._from_fields(n, n, tuple(_densify(vec, n * n)))
                  for vec in _kernel(*_reduced_rows(q), n * n))
    return DerivationSpace(dim=len(basis), basis=basis, query=q)


@cache
def _sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The 1-based basis pairs i <= j of dimension n, in the order of
    ``algebra._basis_pairs``: the column blocks of the product system."""
    return tuple((i + 1, j + 1) for i, j in _basis_pairs(n))


@cache
def _unit_vectors(n: int) -> tuple[Vector, ...]:
    """The unit vectors e_1..e_n of dimension n, built once per n."""
    return tuple(Vector._from_fields(tuple(_ONE if s == t else _ZERO for s in range(n)))
                 for t in range(n))


@cache
def _column_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """For each left multiplication L_g, g = 1..n, the product column that
    each derivation column u·n + v moves to: β_uv of L_g is component v of
    e_g·e_u, in the block of the pair (min(g, u), max(g, u)) of
    ``_sym_pairs``, so e_u·e_g = e_g·e_u share one block.  For a fixed g
    the map is strictly increasing.  It depends on n alone, so it is built
    once per n."""
    pair_index = {pair: idx for idx, pair in enumerate(_sym_pairs(n))}
    return tuple(tuple(pair_index[(min(g, u), max(g, u))] * n + v
                       for u in range(1, n + 1) for v in range(n))
                 for g in range(1, n + 1))


def _moved_rows(rows: Sequence[dict[int, int]], n: int,
                keep: Sequence[int]) -> Iterator[dict[int, int]]:
    """Each derivation row once per left multiplication L_g, g = 1..n, as a
    new dict, its columns moved by ``_column_moves`` and then restricted
    to the product columns in ``keep`` (ascending), which are renumbered
    0, 1, ... in order.  A copy that loses all its columns is dropped.

    ``tp_product_space`` keeps every column but those that the singleton
    rows β_uv = 0 kill, as the module docstring's second stage states, and
    hands the copies to ``_reduce`` as they are.  With every column kept,
    each row is moved whole, as the dense reference in the tests moves the
    raw rows.
    """
    label = dict(zip(keep, range(len(keep))))
    for move in _column_moves(n):
        for row in rows:
            copy = {label[move[c]]: e for c, e in row.items() if move[c] in label}
            if copy:
                yield copy


def tp_product_space(b: TriBracket) -> ProductSpace:
    """All commutative products making ``b`` a transposed Poisson structure.

    The second stage of the module docstring: the singleton rows among the
    reduced 1/3-derivation rows of ``b`` kill the columns (e_g·e_u)_v,
    g = 1..n, which are zero in every compatible product.  The other rows,
    moved by ``_moved_rows`` onto the surviving columns, are eliminated
    again by ``_reduce``, and ``_kernel`` reads the kernel on those
    columns.  The free coordinates are the surviving non-pivot columns,
    ascending.  Each basis product is read from its sparse kernel row,
    each kept column mapped back to its (pair, component) slot, and is
    built once, through ``CommProduct._from_fields`` and
    ``Vector._from_fields``, with its pairs in ascending order.
    """
    n = b.dim
    pairs = _sym_pairs(n)
    rows = _reduced_rows(DerivationQuery(b))[0]
    singletons = [c for row in rows if len(row) == 1 for c in row]
    killed = {move[c] for move in _column_moves(n) for c in singletons}
    keep = [c for c in range(len(pairs) * n) if c not in killed]
    reduced, pivots = _reduce(_moved_rows([r for r in rows if len(r) > 1], n, keep))
    where = [divmod(c, n) for c in keep]
    units = _unit_vectors(n)
    basis = []
    for vec in _kernel(reduced, pivots, len(keep)):
        if len(vec) == 1:  # the 1 at its free column alone
            [(idx, t)] = [where[j] for j in vec]
            basis.append(CommProduct._from_fields(n, {pairs[idx]: units[t]}))
            continue
        table: dict[int, list[tuple[int, Fraction]]] = {}
        for j, e in vec.items():
            idx, t = where[j]
            if idx in table:
                table[idx].append((t, e))
            else:
                table[idx] = [(t, e)]
        products = {}
        for idx in sorted(table):
            terms = table[idx]
            if len(terms) == 1 and terms[0][1] == 1:
                products[pairs[idx]] = units[terms[0][0]]
            else:
                entries = [_ZERO] * n
                for t, e in terms:
                    entries[t] = e
                products[pairs[idx]] = Vector._from_fields(tuple(entries))
        basis.append(CommProduct._from_fields(n, products))
    pivot_set = set(pivots)
    description = tuple((pairs[idx], t + 1)
                        for i, (idx, t) in enumerate(where) if i not in pivot_set)
    return ProductSpace(dim=len(basis), basis=tuple(basis),
                        description=description, bracket=b)
