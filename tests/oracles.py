"""Dense reference definitions that only the tests use.

The package solves and multiplies one way each: every elimination is the
one entry ``linalg._reduce`` (its forward pass and back-substitution),
each δ-derivation system is stated once by
``derivations._derivation_rows``, and products are multiplied through their
coefficient tables.  The functions here are the dense forms of the same
objects, kept so the tests can state them independently of the fast path:

* ``rref`` and ``kernel_basis`` are thin dense wrappers over ``_reduce`` and
  ``_kernel``, and ``rref`` divides each integer row of ``_reduce`` by its
  pivot entry;
* ``oracle_rref`` and ``oracle_kernel`` are an independent dense
  Gauss-Jordan over ``Fraction``, the reference for ``_reduce`` and
  ``_kernel`` themselves, and ``oracle_solve_affine`` the general solution
  of m·x = b read off the same elimination of [m | b], raising the local
  ``Infeasible`` when there is none: the reference for the witness solve
  of ``classify``;
* ``mat_mul`` and ``zeros`` are the matrix product and the zero matrix;
* ``determinant`` is a separate Bareiss elimination, the reference for
  invertibility; ``dense_rank_mod_p`` is the rank pass mod
  ``linalg._RANK_PRIME`` on dense lists of residues, the reference for the
  packed rows of ``linalg._rank_mod_p``, and ``gf2_rank`` an XOR
  elimination over GF(2), the reference with the prime set to 2;
  ``stopped_rank`` is the count that pass returns when it stops early;
* ``mat_vec`` and ``product_eval`` evaluate a matrix and a product on
  arbitrary vectors;
* ``build_derivation_system`` and ``build_product_system`` are the dense
  systems whose kernels the solved spaces are, and ``left_multiplication``
  is the matrix those systems constrain;
* ``reference_family_coordinates`` and ``reference_case`` are the shape
  test and the case test in ``Fraction`` arithmetic on the stored entries,
  the references for the integer read ``algebra._cleared_coordinates`` and
  the case helper ``families._case_of``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from tpl3.algebra import CommProduct, FamilyCoordinates, ShapeMismatch, TriBracket
from tpl3.families import CaseId
from tpl3.derivations import (DerivationQuery, _derivation_rows, _moved_rows,
                              _sym_pairs)
from tpl3 import linalg
from tpl3.linalg import (DimensionMismatch, Matrix, Vector, _cleared, _densify, _kernel,
                         _reduce)

ZERO = Fraction(0)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    reduced, pivots = _reduce(map(_cleared, m.row_lists()))
    entries = [Fraction(row.get(j, 0), row[pc])
               for row, pc in zip(reduced, pivots) for j in range(m.cols)]
    entries.extend([0] * ((m.rows - len(reduced)) * m.cols))
    return Matrix(m.rows, m.cols, entries), pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space, in reduced echelon normal form.

    One basis vector per free column, ascending: that vector has a 1 in the
    free coordinate, the negated echelon column in the pivot coordinates,
    and 0 in the other free coordinates.  Every pivot coordinate it touches
    lies left of the free one, so each vector's last nonzero coordinate is
    its free column.
    """
    reduced, pivots = _reduce(map(_cleared, m.row_lists()))
    return [Vector(_densify(v, m.cols)) for v in _kernel(reduced, pivots, m.cols)]


class Infeasible(ArithmeticError):
    """An affine system has no solution."""


def zeros(rows: int, cols: int) -> Matrix:
    """The zero matrix of the given shape."""
    return Matrix(rows, cols, [ZERO] * (rows * cols))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix(a.rows, b.cols, [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)),
                                       ZERO)
                                   for i in range(a.rows) for j in range(b.cols)])


def oracle_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns by dense Gauss-Jordan
    over ``Fraction``: the first nonzero entry of each column at or below
    the current row is the pivot, scaled to 1 and cleared from every other
    row.  Zero rows stay at the bottom."""
    work = m.row_lists()
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [e - f * p for e, p in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix.from_rows(work), tuple(pivots)


def oracle_kernel(m: Matrix) -> list[Vector]:
    """The reduced-echelon kernel basis of ``oracle_rref``: one vector per
    free column, ascending, with a 1 there and the negated column of the
    reduced form at the pivot coordinates."""
    reduced, pivots = oracle_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.entry(r, f)
        basis.append(Vector(v))
    return basis


def oracle_solve_affine(m: Matrix, b: Vector) -> tuple[Vector, list[Vector]]:
    """The general solution of m·x = b: the particular solution with every
    free coordinate 0, read off the reduced form of [m | b], and the kernel
    basis of ``oracle_kernel``.  Raises ``Infeasible`` when [m | b] has a
    pivot in its last column."""
    if m.rows != b.dim:
        raise DimensionMismatch("right-hand side length differs from row count")
    aug = Matrix.from_rows([row + [e] for row, e in zip(m.row_lists(), b)])
    reduced, pivots = oracle_rref(aug)
    if m.cols in pivots:
        raise Infeasible("inconsistent system")
    x = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entry(r, m.cols)
    return Vector(x), oracle_kernel(m)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Column action m·v."""
    if m.cols != v.dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return Vector(sum((m.entry(i, j) * v[j] for j in range(m.cols)), Fraction(0))
                  for i in range(m.rows))


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers; the Bareiss recurrence then only ever
    performs exact integer divisions.
    """
    if not m.is_square():
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    scale = Fraction(1)
    a: list[list[int]] = []
    for i in range(n):
        row = [m.entry(i, j) for j in range(n)]
        den = 1
        for e in row:
            den = den * e.denominator // math.gcd(den, e.denominator)
        scale /= den
        a.append([int(e * den) for e in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return scale * sign * a[n - 1][n - 1]


def dense_rank_mod_p(rows: Iterable[dict[int, int]], ncols: int, target: int) -> int:
    """The rank of the integer ``rows`` mod ``linalg._RANK_PRIME``, counted
    up to ``target``.  Each row is made a dense list of residues and reduced
    against the pivot rows found so far, in the order found; each is 1 at
    its pivot column and zero left of it and at every earlier pivot column.
    The pass stops at ``target`` and reads every row until then."""
    p = linalg._RANK_PRIME
    found: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(found) >= target:
            break
        v = [0] * ncols
        for c, e in row.items():
            v[c] = e % p
        for c, w in found:
            f = v[c]
            if f:
                v[c:] = [(x - f * y) % p for x, y in zip(v[c:], w)]
        lead = next(compress(range(ncols), v), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            found.append((lead, [x * inv % p for x in v[lead:]]))
    return len(found)


def stopped_rank(prefix_ranks: Sequence[int], target: int) -> int:
    """What a rank pass returns that stops as soon as the pivots found plus
    the rows left cannot reach ``target``: ``prefix_ranks[k]`` is the rank
    of the first k rows, for k = 0 up to the number of rows.  It reads rows
    while it has found fewer than ``target`` pivots and at most
    rows − ``target`` rows fell dependent, and returns the rank of what it
    read, capped at ``target``."""
    nrows = len(prefix_ranks) - 1
    for k, r in enumerate(prefix_ranks):
        if r >= target or k - r > nrows - target or k == nrows:
            return min(r, target)


def gf2_rank(rows: Iterable[dict[int, int]]) -> int:
    """The rank over GF(2) of sparse integer rows: each row as a bit mask of
    its odd entries, reduced by the kept masks with the same highest bit."""
    by_top: dict[int, int] = {}
    for row in rows:
        x = sum(1 << c for c, e in row.items() if e % 2)
        while x:
            top = x.bit_length() - 1
            if top not in by_top:
                by_top[top] = x
                break
            x ^= by_top[top]
    return len(by_top)


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


def _dense(rows: Iterable[dict[int, Fraction]], ncols: int) -> Matrix:
    """The sparse rows as a ``Matrix``; one zero row when there are none."""
    dense = [[row.get(j, ZERO) for j in range(ncols)] for row in rows]
    return Matrix.from_rows(dense) if dense else zeros(1, ncols)


def build_derivation_system(q: DerivationQuery) -> Matrix:
    """The homogeneous system M·vec(β) = 0 characterising δ-derivations.

    Unknowns are the n² entries β_uv, row-major; rows are indexed by
    increasing basis triples and output component t, and only the nonzero
    ones are kept, so the matrix has at most C(n,3)·n rows (one zero row
    when none is left).  This is the dense form of the rows that
    ``delta_derivations`` eliminates.
    """
    n = q.bracket.dim
    return _dense(_derivation_rows(q), n * n)


def left_multiplication(p: CommProduct, i: int) -> Matrix:
    """Matrix of y ↦ e_i·y in the row convention (row j = image of e_j)."""
    if not 1 <= i <= p.dim:
        raise DimensionMismatch(f"basis index {i} out of range 1..{p.dim}")
    return Matrix.from_rows([list(p.basis_product(i, j)) for j in range(1, p.dim + 1)])


def build_product_system(b: TriBracket) -> tuple[Matrix, tuple[tuple[int, int], ...]]:
    """Joint linear system for all products compatible with ``b``.

    Unknowns are the coefficients of e_i·e_j for non-decreasing (i, j) in
    lexicographic order, output component innermost.  The rows state that
    every left multiplication is a 1/3-derivation: the raw 1/3-derivation
    rows, moved by ``_moved_rows``.  This is the dense definition of the
    space; ``tp_product_space`` solves an equivalent, smaller system.
    """
    pairs = _sym_pairs(b.dim)
    rows = list(_derivation_rows(DerivationQuery(b)))
    ncols = len(pairs) * b.dim
    return _dense(_moved_rows(rows, b.dim, range(ncols)), ncols), pairs


def reference_family_coordinates(p: CommProduct) -> FamilyCoordinates:
    """The solved-family coordinates of ``p`` read from its stored entries
    in ``Fraction`` arithmetic; ShapeMismatch unless e1·e1 = 0, e1·e2 =
    ((a+w)/2) e1 and e1·e3 = ((r+t)/2) e1."""
    if p.dim != 3:
        raise ShapeMismatch(f"expected dimension 3, got {p.dim}")
    g, a, q = p.basis_product(2, 2)
    h, r, w = p.basis_product(2, 3)
    k, s, t = p.basis_product(3, 3)
    if (p.basis_product(1, 1) != Vector.zero(3)
            or p.basis_product(1, 2) != Vector([(a + w) / 2, 0, 0])
            or p.basis_product(1, 3) != Vector([(r + t) / 2, 0, 0])):
        raise ShapeMismatch("product is outside the compatible family")
    return FamilyCoordinates(g, a, q, h, r, w, k, s, t)


def reference_case(c: FamilyCoordinates):
    """The case condition set and subcase letter of the coordinates, as the
    module docstring of ``tpl3.families`` states them, or None."""
    if c.r == c.t == 0 and c.w == -c.a != 0 and c.s != 0:
        case = 1 if c.q == 0 else 2
    elif c.a == c.w == 0 and c.r == -c.t != 0 and c.q != 0:
        case = 3 if c.s == 0 else 4
    else:
        return None
    sub = "a" if c.g == 0 else "b" if c.h == 0 else "c" if c.k == 0 else "d"
    return CaseId(case, sub)
