"""Exact rational vectors, matrices, and linear solvers.

Scalars are ``fractions.Fraction`` throughout: always reduced, positive
denominator, zero is ``0/1``.  Nothing here is numerical; every result is
exact, so equality tests in the rest of the package are literal ``==``.

All row reduction (``rref``, ``rank``, ``kernel_basis``, ``solve_affine``
and ``invert``) goes through one routine, ``_reduce``: sparse integer rows,
fraction-free updates with the integer content removed after each one, the
sparsest available pivot, then back-substitution and one division by each
pivot.  Its output equals that of dense Gauss-Jordan over ``Fraction``
exactly: every step (scaling a row by a nonzero rational, adding a multiple
of one row to another, dropping a zero row or a row proportional to
another) keeps the row space, and a row space has exactly one reduced row
echelon form.  ``determinant`` alone keeps its own Bareiss elimination.

``_reduce`` reads sparse rows, ``{column: value}``, and touches only their
nonzero entries, and ``_kernel`` returns the kernel basis as sparse rows
too.  The solved spaces in ``derivations`` hand ``_reduce`` their rows in
that form and read their bases from the sparse kernel rows, without
building a dense ``Matrix``; the ``Matrix`` wrappers here pass their dense
rows through ``_sparse`` into the same routine and densify the kernel rows
with ``_densify``.

Conventions fixed by this module and relied on elsewhere:

* ``kernel_basis`` returns the reduced-echelon kernel basis: each free
  column, in ascending order, contributes one vector with a 1 in that
  coordinate.  This makes every downstream solved space byte-stable.
* ``solve_affine`` returns the particular solution with all free
  coordinates set to 0, plus the kernel basis.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


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


#: the accepted rational syntax, after surrounding whitespace is stripped:
#: an optional sign, ASCII digits, and an optional ``/`` with ASCII digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rat(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``; unreduced input is normalised.

    Exactly the syntax of ``_RATIONAL`` is accepted, on every Python
    version: no decimal point, exponent, underscore, inner space or
    non-ASCII digit.  Anything else raises ``ValueError``.
    """
    stripped = text.strip()
    if not _RATIONAL.fullmatch(stripped):
        raise ValueError(f"bad rational {text!r}: expected p or p/q in ASCII digits")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


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


def _sparse(row: Sequence[Fraction]) -> dict[int, Fraction]:
    """A dense row as ``{column: value}``."""
    return {j: e for j, e in enumerate(row) if e}


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a sparse row, in ascending column order,
    scaled to coprime integers with a positive first entry."""
    entries = [(j, e) for j, e in sorted(row.items()) if e]
    if not entries:
        return {}
    den = math.lcm(*(e.denominator for _, e in entries))
    ints = {j: e.numerator * (den // e.denominator) for j, e in entries}
    g = math.gcd(*ints.values())
    if entries[0][1] < 0:
        g = -g
    return {j: v // g for j, v in ints.items()} if g != 1 else ints


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """a·x − b·y with integer content removed (zero entries dropped)."""
    out = {j: a * v for j, v in x.items()}
    for j, v in y.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    if out:
        g = math.gcd(*out.values())
        if g != 1:
            out = {j: v // g for j, v in out.items()}
    return out


def _reduce(rows: Iterable[Mapping[int, Fraction]]
            ) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, and its pivot columns.

    This is the package's one elimination routine.  Its input rows are
    sparse, ``{column: value}`` in any column order, and only their nonzero
    entries are read: the solved-space builders yield such rows directly,
    and the dense ``Matrix`` wrappers convert theirs with ``_sparse``.
    Rows become sparse integer rows (denominators cleared, content removed,
    sign fixed), so zero rows and rows proportional to an earlier one are
    dropped before any work.  Forward elimination visits columns in
    ascending order and keeps the rows bucketed by their leading column: the
    rows leading at column c are exactly those with a nonzero there, the
    sparsest becomes the pivot, and every other one is combined
    fraction-free with it and moves to its new leading column.  Back-substitution clears the entries above each
    pivot, bottom up, and each row is finally divided by its pivot entry.
    The result is returned sparse, as ``{column: value}`` with value 1 at
    the pivot, in pivot order.
    """
    by_lead: dict[int, list[dict[int, int]]] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    for row in rows:
        r = _integer_row(row)
        key = tuple(r.items())
        if key and key not in seen:
            seen.add(key)
            by_lead.setdefault(key[0][0], []).append(r)

    echelon: list[tuple[int, dict[int, int]]] = []
    while by_lead:
        c = min(by_lead)
        bucket = by_lead.pop(c)
        pivot = min(bucket, key=len)
        a = pivot[c]
        for r in bucket:
            if r is pivot:
                continue
            b = r[c]
            g = math.gcd(a, b)
            r = _combine(a // g, r, b // g, pivot)
            if r:
                by_lead.setdefault(min(r), []).append(r)
        echelon.append((c, pivot))

    # bottom up: every pivot row below r is already free of the other pivot
    # columns, so clearing one entry of r introduces no other
    pivot_rows: dict[int, dict[int, int]] = {}
    for c, r in reversed(echelon):
        for j in [j for j in r if j != c and j in pivot_rows]:
            p = pivot_rows[j]
            g = math.gcd(p[j], r[j])
            r = _combine(p[j] // g, r, r[j] // g, p)
        pivot_rows[c] = r
    reduced = []
    for c, _ in echelon:
        r = pivot_rows[c]
        a = r[c]
        reduced.append({j: Fraction(v, a) for j, v in r.items()})
    return reduced, tuple(c for c, _ in echelon)


def _kernel(reduced: list[dict[int, Fraction]], pivots: tuple[int, ...],
            ncols: int) -> list[dict[int, Fraction]]:
    """The reduced-echelon kernel basis of the first ``ncols`` columns, as
    sparse rows ``{column: value}``.

    One row per free column f, ascending: 1 at f and, for each reduced row
    with an entry at f, that entry negated at the row's pivot column.  Every
    stored entry is nonzero.  One pass over the reduced rows groups their
    entries by column, so no dense ``ncols`` vector is built; callers that
    need one densify with ``_densify``.
    """
    pivot_set = set(pivots)
    by_column: dict[int, dict[int, Fraction]] = {}
    for row, pc in zip(reduced, pivots):
        for j, e in row.items():
            if j != pc:
                by_column.setdefault(j, {})[pc] = -e
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = {f: Fraction(1)}
            v.update(by_column.get(f, {}))
            basis.append(v)
    return basis


def _densify(row: Mapping[int, Fraction], ncols: int) -> list[Fraction]:
    """A sparse row as a dense list of length ``ncols``."""
    v = [Fraction(0)] * ncols
    for j, e in row.items():
        v[j] = e
    return v


def invert(m: Matrix) -> Matrix:
    """Exact inverse: the right half of the reduced form of [m | I]; raises
    ``Singular``."""
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    reduced, pivots = _reduce({**_sparse(row), n + i: Fraction(1)}
                              for i, row in enumerate(m.row_lists()))
    if pivots != tuple(range(n)):
        raise Singular("matrix is singular")
    return Matrix(n, n, [row.get(n + j, 0) for row in reduced for j in range(n)])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    reduced, pivots = _reduce(map(_sparse, m.row_lists()))
    entries = [row.get(j, 0) for row in reduced for j in range(m.cols)]
    entries.extend([0] * ((m.rows - len(reduced)) * m.cols))
    return Matrix(m.rows, m.cols, entries), pivots


def rank(m: Matrix) -> int:
    return len(_reduce(map(_sparse, m.row_lists()))[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space, in reduced echelon normal form.

    One basis vector per free column, ascending: that vector has a 1 in the
    free coordinate, the negated echelon column in the pivot coordinates,
    and 0 in the other free coordinates.  Every pivot coordinate it touches
    lies left of the free one, so each vector's last nonzero coordinate is
    its free column.
    """
    reduced, pivots = _reduce(map(_sparse, m.row_lists()))
    return [Vector(_densify(v, m.cols)) for v in _kernel(reduced, pivots, m.cols)]


def solve_affine(m: Matrix, b: Vector) -> tuple[Vector, list[Vector]]:
    """Exact general solution of m·x = b.

    Returns ``(particular, kernel_basis)`` where the particular solution has
    all free coordinates equal to 0.  Raises ``Infeasible`` if inconsistent.
    One reduction of [m | b] gives both: its left block is the reduced form
    of m.
    """
    if m.rows != b.dim:
        raise DimensionMismatch("right-hand side length differs from row count")
    reduced, pivots = _reduce({**_sparse(row), m.cols: e}
                              for row, e in zip(m.row_lists(), b.entries))
    if m.cols in pivots:
        raise Infeasible("inconsistent system")
    x = [Fraction(0)] * m.cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row.get(m.cols, Fraction(0))
    return Vector(x), [Vector(_densify(v, m.cols))
                       for v in _kernel(reduced, pivots, m.cols)]


def _int_nth_root(k: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None.

    Integer Newton iteration from 2**ceil(bits/n), which lies above the
    root, descends to floor(k ** (1/n)) exactly for integers of any size.
    """
    if k < 0:
        return None
    if k in (0, 1):
        return k
    root = 1 << -(-k.bit_length() // n)
    while True:
        step = ((n - 1) * root + k // root ** (n - 1)) // n
        if step >= root:
            break
        root = step
    return root if root ** n == k else None


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
