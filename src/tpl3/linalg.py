"""Exact rational vectors, matrices, and linear solvers.

Scalars are ``fractions.Fraction`` throughout: always reduced, positive
denominator, zero is ``0/1``.  Nothing here is numerical; every result is
exact, so equality tests in the rest of the package are literal ``==``.

All row reduction goes through one elimination loop, ``_eliminate``: the
forward pass ``_echelon`` followed by ``_back_substitute``.  Raw rows
reach it one way, through ``_reduce``, whose ``_integer_row`` makes each a
normal integer row: the dense solvers (``rank``, ``invert``) clear each
rational row to integers in one pass, ``_cleared``, first, and the
δ-derivation stage of ``derivations`` hands it its sparse integer rows;
only the product stage, whose rows are already normal, calls
``_eliminate`` directly.  ``_rank_mod_p``, a rank bound mod a prime that
never returns rows, can prove a rank that fixes the reduced rows before
any exact pass (see ``derivations._reduced_rows``).  So every elimination
runs on Python ``int``s.  The forward pass uses fraction-free updates with
the integer content removed after each one and the sparsest available
pivot.  Each reduced row comes back as a normal integer row that is zero
at every other pivot column: the reduced row echelon form row times a
positive integer, so dividing it by its pivot entry gives dense
Gauss-Jordan over ``Fraction`` exactly.  Every step (scaling a row by a
nonzero rational, adding a multiple of one row to another, dropping a
zero row or a row proportional to another) keeps the row space, and a row
space has exactly one reduced row echelon form.

Rationals are formed only where they are reported: in ``_kernel`` (each
distinct kernel entry −v/a once per call) and in the entries of the
inverse that ``invert`` reads off [m | I], each an integer divided by its
row's pivot entry.  The other integer readers of the package follow the same
convention: the structure constants and product tables of ``algebra``
and the maps that ``morphisms`` transports by are cleared to integers
over one denominator, and each reported entry is divided once, by
``algebra._unscaled`` once per distinct value in a result.  Such an entry
is already a ``Fraction``, so the ``Vector``s of ``algebra._unscaled``,
the products of ``algebra._unscaled_product`` (which
``transport_product`` and ``instantiate_family`` return), the
certificate witnesses of ``classify`` and the basis records of the
solved spaces in ``derivations`` are built by ``_Record._from_fields``,
which stores its fields as they are, with no second pass through
``rat``; its docstring states the contract.  The
public constructors still coerce every entry.

``rational_root`` takes square roots by ``math.isqrt``, and fourth roots
by ``math.isqrt`` twice, with one exact power check; it takes no other
degree.  ``_integer_root`` bisects for the cubic matcher of ``classify``.

``_reduce`` reads sparse integer rows, ``{column: value}``, and touches
only their nonzero entries, and ``_kernel`` returns the kernel basis as
sparse rows too.  The solved spaces in ``derivations`` pass their rows in
that form and read their bases from the sparse kernel rows, with no dense
``Matrix``; the dense solvers here clear their rows with ``_cleared``.

The one convention fixed by this module and relied on elsewhere:
``_kernel`` returns the reduced-echelon kernel basis, in which each free
column, in ascending order, contributes one vector with a 1 in that
coordinate.  This makes every downstream solved space byte-stable.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from itertools import compress
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


#: the shared 0 and 1 of reported rationals
_ZERO, _ONE = Fraction(0), Fraction(1)


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class Singular(ArithmeticError):
    """Matrix inversion was requested for a singular matrix."""


def rat(x) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational.

    The exact types are tested first: ``isinstance(x, Fraction)`` on an
    ``int`` goes through the ``numbers.Rational`` ABC check, which costs
    more than the coercion itself.  Subclasses take the ``isinstance`` path.
    """
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
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


class _Record:
    """Base of the package's immutable values and records.

    A record lists its fields in ``__slots__``; a slot whose name starts
    with ``_`` is a memo, a value derived from the fields that is not one
    of them.  Each class gets one generated function, ``_store(record,
    *fields)``, built once as ``collections.namedtuple`` builds its
    methods: its parameters are named after ``_fields`` and its body is one
    ``object.__setattr__`` per field, then one per memo, which starts as
    None.  A record that defines no ``__init__`` of its own takes ``_store``
    as its ``__init__``; ``Vector``, ``Matrix``, ``TriBracket``,
    ``CommProduct``, ``AutoMatrix`` and the records with defaults or checks
    write their own, which coerce or check first and then store every field
    and memo by one ``self._store(self, ...)`` call.  ``_from_fields`` is
    the one constructor that skips the checks.  Outside ``_store``, a memo
    is written only by the function that fills it.

    After construction, assignment and deletion raise ``AttributeError``.
    Two records are equal when they are of the same class with equal
    fields, the hash is that of the key ``_key(record)`` (the fields, or
    the value of the only field), and ``pickle`` and ``copy`` rebuild a
    record by calling its class on its fields.  The ``repr`` reads
    ``Name(field=value, ...)`` with each value's ``repr``; the class keyword
    ``hidden`` names fields left out of it.  ``Vector``, ``Matrix``,
    ``TriBracket`` and ``CommProduct`` write their own ``repr``, and the
    last two their own hash, because their ``table`` is a dict.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        cls._key = attrgetter(*cls._fields)
        memos = tuple(name for name in cls.__slots__ if name.startswith("_"))
        body = "".join(f"\n    _set(record, {name!r}, {name})" for name in cls._fields)
        body += "".join(f"\n    _set(record, {name!r}, None)" for name in memos)
        namespace = {"_set": object.__setattr__}
        exec(f"def _store(record, {', '.join(cls._fields)}):{body}", namespace)
        store = namespace["_store"]
        store.__module__, store.__qualname__ = cls.__module__, f"{cls.__qualname__}._store"
        cls._store = staticmethod(store)
        if "__init__" not in vars(cls):
            cls.__init__ = store

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    @classmethod
    def _from_fields(cls, *fields):
        """A record from its fields exactly as they are stored, with every
        memo None, and no coercion and no check.

        The caller's contract: ``fields`` are what the public constructor
        would store, so the record compares, hashes, prints and pickles
        like the one it builds.  For a ``Vector`` or ``Matrix`` that is a
        tuple of ``Fraction``s of the right positive length; for a
        ``CommProduct`` or ``TriBracket`` a dict of nonzero ``Vector``s of
        length ``dim`` on the ordered keys, in ascending order, which the
        record then owns.  The integer readers of ``algebra``, the
        certifier of ``classify`` and the solved spaces of ``derivations``
        use it for values they have just divided out, which the public
        constructors would only pass through again.
        """
        record = object.__new__(cls)
        cls._store(record, *fields)
        return record


class Vector(_Record):
    """Immutable exact vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        entries = tuple(map(rat, entries))
        if not entries:
            raise DimensionMismatch("vectors must have positive dimension")
        self._store(self, entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "Vector":
        return cls([_ZERO] * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "Vector":
        """Basis vector e_i (1-based)."""
        if not 1 <= i <= n:
            raise DimensionMismatch(f"unit index {i} out of range 1..{n}")
        return cls([_ONE if j == i - 1 else _ZERO for j in range(n)])

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

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _check(self, other: "Vector") -> None:
        if not isinstance(other, Vector) or other.dim != self.dim:
            raise DimensionMismatch("vector dimensions differ")

    def __repr__(self) -> str:
        return "(" + ", ".join(fmt_rat(a) for a in self.entries) + ")"


class Matrix(_Record):
    """Immutable exact matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrices must have positive shape")
        entries = tuple(map(rat, entries))
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        self._store(self, rows, cols, entries)

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
        return cls(n, n, [_ONE if i == j else _ZERO
                          for i in range(n) for j in range(n)])

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

    def __repr__(self) -> str:
        return "[" + "; ".join(
            ", ".join(fmt_rat(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)) + "]"


def vec_mat(v: Vector, m: Matrix) -> Vector:
    """Row action v·m (the convention for coordinate images of linear maps)."""
    if m.rows != v.dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return Vector(sum((v[i] * m.entry(i, j) for i in range(m.rows)), _ZERO)
                  for j in range(m.cols))


def _cleared(row: Sequence[Fraction | int]) -> dict[int, int]:
    """A dense rational row as a sparse integer row ``{column: value}``:
    its nonzero entries, in ascending column order, times the least common
    denominator of the row, so it spans the same line."""
    den = math.lcm(*(e.denominator for e in row))
    return {j: e.numerator * (den // e.denominator) for j, e in enumerate(row) if e}


def _integer_row(row: Mapping[int, int]) -> dict[int, int]:
    """The normal integer row of a sparse integer row: its nonzero
    entries, in ascending column order, divided by their content and
    signed so that the first is positive."""
    r = {j: e for j, e in sorted(row.items()) if e}
    if not r:
        return r
    values = r.values()
    g = math.gcd(*values)
    if next(iter(values)) < 0:
        g = -g
    return {j: v // g for j, v in r.items()} if g != 1 else r


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """a·x − b·y with integer content removed (zero entries dropped).  New
    columns of y are appended after those of x, so the result need not be
    in column order."""
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


def _reduce(rows: Iterable[Mapping[int, int]]
            ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, as normal integer
    rows, and its pivot columns.

    This is the package's one elimination routine for raw rows.  Its input
    rows are sparse integer rows, ``{column: value}`` in any column order,
    and only their nonzero entries are read: the dense solvers clear each
    of their rational rows with ``_cleared`` first.  Each row is
    made a normal integer row by ``_integer_row`` (content removed, sign
    fixed) and the rows are eliminated by ``_eliminate``, whose docstring
    gives the output format.
    """
    return _eliminate(map(_integer_row, rows))


def _eliminate(rows: Iterable[dict[int, int]]
               ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """``_reduce`` on rows that are already normal integer rows, as
    ``_integer_row`` returns them: ascending columns, coprime entries, a
    positive first entry.

    The forward pass ``_echelon`` followed by ``_back_substitute``, whose
    docstrings give the two halves.  The result is one row per pivot, in
    pivot order, each a normal integer row that is zero at every other
    pivot column, with its pivot as its first column: the unique reduced
    row echelon form row times a positive integer.  Dividing a row by its
    pivot entry gives the rational row.
    """
    return _back_substitute(_echelon(rows))


def _echelon(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """The forward pass of ``_eliminate``: an echelon form of the normal
    integer ``rows`` as ``(pivot column, row)`` pairs, in pivot order.

    Zero rows and repeated rows are dropped before any work.  The pass
    visits the columns up to the last nonzero one in ascending order and
    keeps the rows bucketed by their leading column: the rows leading at
    column c are exactly those with a nonzero there, the sparsest becomes
    the pivot, and every other one is combined fraction-free with it and
    moves to its new leading column.  Its length is the rank, and its pivot
    columns are those of the reduced row echelon form.
    """
    by_lead: dict[int, list[dict[int, int]]] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    last = -1
    for r in rows:
        key = tuple(r.items())
        if key and key not in seen:
            seen.add(key)
            by_lead.setdefault(key[0][0], []).append(r)
            last = max(last, key[-1][0])

    echelon: list[tuple[int, dict[int, int]]] = []
    for c in range(last + 1):
        bucket = by_lead.pop(c, None)
        if bucket is None:
            continue
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
    return echelon


#: the prime of ``_rank_mod_p``: below 2**15, so every product of two
#: residues fits in one 30-bit CPython digit
_RANK_PRIME = 32749


def _rank_mod_p(rows: Sequence[Mapping[int, int]], ncols: int, target: int) -> int:
    """``target`` if the rank of the integer ``rows`` mod ``_RANK_PRIME``
    reaches it, else less: a rank bound, which never returns rows.  The
    pass stops once the pivots found plus the rows left cannot reach
    ``target``.  A row is one ``int`` of 64-bit fields (``struct``,
    little-endian), field c for column c.  Against each pivot row found so
    far (1 at its lead, zero left of it and at every earlier lead) it gains
    (p − f)·pivot for f its field at the lead mod p.  A step adds less than
    p², so after t steps a field is below p + t·p² < 2**64 for t < 2**33:
    no carry crosses a field.  Reduction mod p waits until the row is
    unpacked once; a row nonzero mod p is scaled to 1 at its lead and
    repacked as a pivot row.
    """
    p = _RANK_PRIME
    fields = struct.Struct(f"<{ncols}Q")
    found = []  # (64 · lead, packed row)
    spare = len(rows) - target  # the rows that may still turn out dependent
    for row in rows:
        if len(found) >= target or spare < 0:
            break
        v = [0] * ncols
        for c, e in row.items():
            v[c] = e % p
        x = int.from_bytes(fields.pack(*v), "little")
        for shift, w in found:
            f = (x >> shift & 0xFFFF_FFFF_FFFF_FFFF) % p
            if f:
                x += (p - f) * w
        v = [e % p for e in fields.unpack(x.to_bytes(8 * ncols, "little"))]
        lead = next(compress(range(ncols), v), None)
        if lead is None:
            spare -= 1
            continue
        inv = pow(v[lead], -1, p)
        found.append((64 * lead, int.from_bytes(fields.pack(*[e * inv % p for e in v]), "little")))
    return len(found)


def _back_substitute(echelon: list[tuple[int, dict[int, int]]]
                     ) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """The reduced rows and pivots of ``_eliminate`` from the echelon form
    of ``_echelon``: clears the entries above each pivot, bottom up."""
    # bottom up: every pivot row below r is already free of the other pivot
    # columns, so clearing one entry of r introduces no other
    pivot_rows: dict[int, dict[int, int]] = {}
    for c, r in reversed(echelon):
        for j in [j for j in r if j != c and j in pivot_rows]:
            p = pivot_rows[j]
            g = math.gcd(p[j], r[j])
            r = _combine(p[j] // g, r, r[j] // g, p)
        pivot_rows[c] = r
    # ``_combine`` leaves the content at 1 but not the column order or the
    # sign of the pivot entry
    reduced = []
    for c, _ in echelon:
        r = pivot_rows[c]
        s = 1 if r[c] > 0 else -1
        reduced.append({j: s * r[j] for j in sorted(r)})
    return reduced, tuple(c for c, _ in echelon)


def _kernel(reduced: list[dict[int, int]], pivots: tuple[int, ...],
            ncols: int) -> list[dict[int, Fraction]]:
    """The reduced-echelon kernel basis of the first ``ncols`` columns, as
    sparse rows ``{column: value}``, from the integer rows of ``_reduce``.

    One row per free column f, ascending: 1 at f and, for each reduced row
    with an entry v at f and pivot entry a, the rational −v/a at the row's
    pivot column.  Every stored entry is nonzero; each −v/a is built once
    per distinct (−v, a) in a call.  One pass over the reduced
    rows groups their entries by column, so no dense ``ncols`` vector is
    built; callers that need one densify with ``_densify``.  Every pivot
    coordinate a row touches lies left of its free column, so that column is
    the row's last nonzero coordinate.
    """
    pivot_set = set(pivots)
    by_column: dict[int, dict[int, Fraction]] = {}
    made = {}  # one Fraction per distinct (−v, a) in this call
    for row, pc in zip(reduced, pivots):
        a = row[pc]
        for j, v in row.items():
            if j != pc:
                key = -v, a
                by_column.setdefault(j, {})[pc] = made.get(key) or made.setdefault(
                    key, Fraction(-v, a))
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = {f: _ONE}
            v.update(by_column.get(f, {}))
            basis.append(v)
    return basis


def _densify(row: Mapping[int, Fraction], ncols: int) -> list[Fraction]:
    """A sparse row as a dense list of length ``ncols``."""
    v = [_ZERO] * ncols
    for j, e in row.items():
        v[j] = e
    return v


def invert(m: Matrix) -> Matrix:
    """Exact inverse: the right half of the reduced form of [m | I], each
    row divided by its pivot entry; raises ``Singular``.  Each row of
    [m | I] is cleared to integers by ``_cleared``."""
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    reduced, pivots = _reduce(_cleared(row + [int(j == i) for j in range(n)])
                              for i, row in enumerate(m.row_lists()))
    if pivots != tuple(range(n)):
        raise Singular("matrix is singular")
    return Matrix(n, n, [Fraction(row.get(n + j, 0), row[i])
                         for i, row in enumerate(reduced) for j in range(n)])


def rank(m: Matrix) -> int:
    """The number of pivots of m, its rows cleared to integers by
    ``_cleared``."""
    return len(_reduce(map(_cleared, m.row_lists()))[1])


def _integer_root(f, lo: int, hi: int) -> int | None:
    """The integer z in (lo, hi] where bisection on f ends, if f(z) == 0.

    Precondition: lo < hi and f(lo) < 0 <= f(hi).  Each step halves the
    bracket and keeps that sign pattern, so after ceil(log2(hi - lo))
    evaluations it is (z - 1, z] with f(z - 1) < 0 <= f(z), and one more
    decides whether z is a root.  For a polynomial f that bracket holds a
    real root, so when every real root of f in (lo, hi] is an integer, or
    f has only one root there, None proves f has no integer root there.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi if f(hi) == 0 else None


def rational_root(q: Fraction | int, degree: int) -> Fraction | None:
    """The positive rational solution of x**degree = q, or None.

    ``degree`` must be 2 or 4, else ``ValueError``; both are even, so a
    negative radicand never has a root.  The root's numerator and
    denominator are the integer roots of z**degree = k for k the numerator
    and denominator of q, which are coprime, so q has a rational root
    exactly when both have integer ones.  z is ``math.isqrt(k)``, taken
    twice for degree 4: the floor of the square root of the floor of √k is
    the floor of k**(1/4).  One exact power check per k decides it.
    """
    if degree != 2 and degree != 4:
        raise ValueError(f"rational_root takes degree 2 or 4, not {degree}")
    if q <= 0:
        return _ZERO if q == 0 else None
    num, den = q.as_integer_ratio()
    z_num, z_den = math.isqrt(num), math.isqrt(den)
    if degree == 4:
        z_num, z_den = math.isqrt(z_num), math.isqrt(z_den)
    if z_num ** degree != num or z_den ** degree != den:
        return None
    return Fraction(z_num, z_den)
