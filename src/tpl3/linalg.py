"""Exact rational vectors, matrices, and linear solvers.

Scalars are ``fractions.Fraction`` throughout: always reduced, positive
denominator, zero is ``0/1``.  Nothing here is numerical; every result is
exact, so equality tests in the rest of the package are literal ``==``.

The dense solvers ``rank`` and ``invert`` clear each rational row to
integers with ``elimination._cleared`` and eliminate the rows with
``elimination._reduce``, the package's one elimination routine, whose
docstrings give the normal-row format.  Both import those kernels when
they run, so a process that neither ranks nor inverts, the classify route
among them, never compiles them.

Rationals are formed only where they are reported: in
``elimination._kernel`` (each distinct kernel entry −v/a once per call)
and in the entries of the inverse that ``invert`` reads off [m | I],
each an integer divided by its row's pivot entry.  The other integer
readers of the package follow the same convention: the structure
constants and product tables of ``algebra`` and the maps that
``morphisms`` transports by are cleared to integers over one
denominator, and each reported entry is divided once, by
``algebra._unscaled`` once per distinct value in a result.  Such an
entry is already a ``Fraction``, so the ``Vector``s of
``algebra._unscaled``, the products of ``algebra._unscaled_product``
(which ``transport_product`` and ``instantiate_family`` return), the
certificate witnesses of ``classify`` and the basis records of the
solved spaces in ``derivations`` are built by ``_Record._from_fields``,
which stores its fields as they are, with no second pass through
``rat``; its docstring states the contract.  The public constructors
still coerce every entry.

``rational_root`` takes square roots by ``math.isqrt``, and fourth roots
by ``math.isqrt`` twice, with one exact power check; it takes no other
degree.  ``_integer_root`` bisects for the cubic matcher of ``classify``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence


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


def invert(m: Matrix) -> Matrix:
    """Exact inverse: the right half of the reduced form of [m | I], each
    row divided by its pivot entry; raises ``Singular``.  Each row of
    [m | I] is cleared to integers by ``_cleared``."""
    from .elimination import _cleared, _reduce

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
    from .elimination import _cleared, _reduce

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
