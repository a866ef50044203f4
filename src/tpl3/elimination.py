"""Exact elimination of sparse integer rows.

All row reduction goes through one entry, ``_reduce``: ``_integer_row``
makes each input row a normal integer row, then the forward pass
``_echelon`` and ``_back_substitute`` eliminate them.  The dense solvers
``linalg.rank`` and ``linalg.invert`` clear each rational row to integers
in one pass, ``_cleared``, first, and both stages of ``derivations`` hand
it sparse integer rows, so the normal-row format stays inside this module.
``_rank_mod_p``, a rank bound mod a prime that never returns rows, can
prove a rank that fixes the reduced rows before any exact pass (see
``derivations._reduced_rows``).  So every elimination runs on Python
``int``s.  The forward pass uses fraction-free updates with
the integer content removed after each one and the sparsest available
pivot.  Each reduced row comes back as a normal integer row that is zero
at every other pivot column: the reduced row echelon form row times a
positive integer, so dividing it by its pivot entry gives dense
Gauss-Jordan over ``Fraction`` exactly.  Every step (scaling a row by a
nonzero rational, adding a multiple of one row to another, dropping a
zero row or a row proportional to another) keeps the row space, and a row
space has exactly one reduced row echelon form.

``_reduce`` reads sparse integer rows, ``{column: value}``, and touches
only their nonzero entries, and ``_kernel`` returns the kernel basis as
sparse rows too.  The solved spaces in ``derivations`` pass their rows in
that form and read their bases from the sparse kernel rows, with no dense
``Matrix``; the dense solvers of ``linalg`` clear their rows with
``_cleared``.

Only the processes that eliminate load this module: ``derivations``
imports it, and ``linalg.rank`` and ``linalg.invert`` import it when they
run, so the classify route, which does neither, never compiles it.

The one convention fixed by this module and relied on elsewhere:
``_kernel`` returns the reduced-echelon kernel basis, in which each free
column, in ascending order, contributes one vector with a 1 in that
coordinate.  This makes every downstream solved space byte-stable.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .linalg import _ONE, _ZERO


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

    This is the package's one elimination routine.  Its input rows are
    sparse integer rows, ``{column: value}`` in any column order, and only
    their nonzero entries are read: the dense solvers clear each of their
    rational rows with ``_cleared`` first.  Each row is made a normal
    integer row by ``_integer_row`` (ascending columns, content removed, a
    positive first entry), then the forward pass ``_echelon`` and
    ``_back_substitute``, whose docstrings give the two halves, eliminate
    them.  The result is one row per pivot, in pivot order, each a normal
    integer row that is zero at every other pivot column, with its pivot
    as its first column: the unique reduced row echelon form row times a
    positive integer.  Dividing a row by its pivot entry gives the
    rational row.
    """
    return _back_substitute(_echelon(map(_integer_row, rows)))


def _echelon(rows: Iterable[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """The forward pass of ``_reduce``: an echelon form of the normal
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
    """The reduced rows and pivots of ``_reduce`` from the echelon form
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
