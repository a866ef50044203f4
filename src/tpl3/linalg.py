"""Exact rational vectors, matrices, and linear solvers.

Scalars are ``fractions.Fraction`` throughout: always reduced, positive
denominator, zero is ``0/1``.  Nothing here is numerical; every result is
exact, so equality tests in the rest of the package are literal ``==``.

Conventions fixed by this module and relied on elsewhere:

* ``kernel_basis`` returns the reduced-echelon kernel basis: each free
  column, in ascending order, contributes one vector with a 1 in that
  coordinate.  This makes every downstream solved space byte-stable.
* ``solve_affine`` returns the particular solution with all free
  coordinates set to 0, plus the kernel basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class Singular(ArithmeticError):
    """Matrix inversion was requested for a singular matrix."""


class Infeasible(ArithmeticError):
    """An affine system has no solution."""


def rat(x) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def parse_rat(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``; unreduced input is normalised."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None
    return value

def fmt_rat(q: Fraction) -> str:
    """Canonical string form: ``"p"`` or ``"p/q"`` with q > 0, reduced."""
    return str(q)


class Vector:
    """Immutable exact vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(rat(e) for e in entries))
        if not self.entries:
            raise DimensionMismatch("vectors must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "Vector":
        return cls([Fraction(0)] * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "Vector":
        """Basis vector e_i (1-based)."""
        if not 1 <= i <= n:
            raise DimensionMismatch(f"unit index {i} out of range 1..{n}")
        return cls([Fraction(1) if j == i - 1 else Fraction(0) for j in range(n)])

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def scale(self, c) -> "Vector":
        c = rat(c)
        return Vector(c * a for a in self.entries)

    __rmul__ = scale

    def dot(self, other: "Vector") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector) or other.dim != self.dim:
            raise DimensionMismatch("vector dimensions differ")

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(fmt_rat(a) for a in self.entries) + ")"


class Matrix:
    """Immutable exact matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrices must have positive shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(rat(e) for e in entries))
        if len(self.entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        if r == 0:
            raise DimensionMismatch("no rows")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [Fraction(1) if i == j else Fraction(0)
                          for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        """0-based entry access."""
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i * self.cols:(i + 1) * self.cols])

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return "[" + "; ".join(
            ", ".join(fmt_rat(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)) + "]"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            out.append(sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)),
                           Fraction(0)))
    return Matrix(a.rows, b.cols, out)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Column action m·v."""
    if m.cols != v.dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return Vector(sum((m.entry(i, j) * v[j] for j in range(m.cols)), Fraction(0))
                  for i in range(m.rows))


def vec_mat(v: Vector, m: Matrix) -> Vector:
    """Row action v·m (the convention for coordinate images of linear maps)."""
    if m.rows != v.dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return Vector(sum((v[i] * m.entry(i, j) for i in range(m.rows)), Fraction(0))
                  for j in range(m.cols))


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


def invert(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises ``Singular``."""
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    work = [list(m.entries[i * n:(i + 1) * n]) +
            [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise Singular("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    return Matrix.from_rows([row[n:] for row in work])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    work = m.row_lists()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
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


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space, in reduced echelon normal form.

    One basis vector per free column, ascending: that vector has a 1 in the
    free coordinate, the negated echelon column in the pivot coordinates,
    and 0 in the other free coordinates.
    """
    reduced, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.entry(r, f)
        basis.append(Vector(v))
    return basis


def solve_affine(m: Matrix, b: Vector) -> tuple[Vector, list[Vector]]:
    """Exact general solution of m·x = b.

    Returns ``(particular, kernel_basis)`` where the particular solution has
    all free coordinates equal to 0.  Raises ``Infeasible`` if inconsistent.
    """
    if m.rows != b.dim:
        raise DimensionMismatch("right-hand side length differs from row count")
    aug = Matrix(m.rows, m.cols + 1,
                 [m.entry(i, j) if j < m.cols else b[i]
                  for i in range(m.rows) for j in range(m.cols + 1)])
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        raise Infeasible("inconsistent system")
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entry(r, m.cols)
    return Vector(x), kernel_basis(m)


def _int_nth_root(k: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None."""
    if k < 0:
        return None
    if k in (0, 1):
        return k
    root = round(k ** (1.0 / n))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand ** n == k:
            return cand
    return None


def rational_root(q: Fraction, degree: int) -> Fraction | None:
    """The positive rational solution of x**degree = q, or None.

    ``degree`` must be even here (2 or 4 in this package), so a negative
    radicand never has a root.
    """
    if q <= 0:
        return Fraction(0) if q == 0 else None
    num = _int_nth_root(q.numerator, degree)
    den = _int_nth_root(q.denominator, degree)
    if num is None or den is None:
        return None
    return Fraction(num, den)
