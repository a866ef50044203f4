"""Canonical JSON documents for brackets, products, and witness matrices.

Document shape (UTF-8 JSON, 1-based indices)::

    {
      "dim": 3,
      "bracket": [{"args": [1,2,3], "value": {"1": "1"}}],
      "product": [{"args": [2,2], "value": {"2": "1", "3": "-1/2"}}],
      "meta": {"name": "example"}
    }

``product`` and ``meta`` are optional; absent table entries are zero.
Serialisation is canonical: fixed top-level key order (dim, bracket,
product, meta), entries sorted by args, components in ascending order,
rationals reduced, zero entries omitted, no whitespace.  Parsing accepts
unreduced rationals and unsorted entries and normalises, so
``serialize(parse(x))`` is the canonical form of ``x`` and round-trips
canonical bytes unchanged.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Optional

from .linalg import Matrix, Vector, _Record, fmt_rat, parse_rat
from .algebra import CommProduct, TriBracket

if TYPE_CHECKING:
    from .morphisms import AutoMatrix


class DocumentError(ValueError):
    """Malformed document; the message carries a field path or line/column."""


#: the largest ``dim`` a document may declare.  A document of a few bytes,
#: ``{"dim": N, "bracket": []}``, makes ``check`` fill an N×N×N structure
#: table (dimension 1,000 would need about 10⁹ cells), and its δ-derivation
#: and product spaces have N² and N²(N+1)/2 basis elements.  The
#: fundamental-identity check visits only the basis tuples where a side can
#: be nonzero, so on the zero bracket of dimension 32 it takes about 2 ms in
#: process (3.3 s for the whole ``tpl3 check`` while it visited all
#: C(N,3)·C(N,2) tuples); ``tpl3 check``, ``derivations`` and ``tp-space``
#: take about 0.2, 1.0 and 0.7 s there, mostly start-up and printing the
#: bases (Python 3.11.7, 2 vCPU).  Every document of the paper has
#: dimension 3.  The cap bounds sparse documents only: on a dense bracket,
#: with every triple stored, ``check`` costs about n⁷ (n⁵ tuples of n² terms
#: each), about 4.5 s at n = 14, so a dense document within the cap can
#: still take minutes.
MAX_DIM = 32


class AlgebraDocument(_Record):
    """A parsed document; ``meta`` defaults to a new empty dict."""

    __slots__ = ("bracket", "product", "meta")

    def __init__(self, bracket: TriBracket, product: Optional[CommProduct] = None,
                 meta: Optional[dict[str, str]] = None):
        self._store(self, bracket, product, {} if meta is None else meta)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` rejecting a key repeated within one object,
    whose earlier values plain ``json.loads`` would drop silently."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"duplicate key {key!r} in one object")
        obj[key] = value
    return obj


def _load_json(data, what: str):
    """``data`` (bytes or str) parsed as JSON; ``what`` names the input in
    the error for bytes that are not UTF-8 and for nesting deeper than the
    parser's recursion limit."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{what} is not UTF-8: {exc}") from None
    try:
        return json.loads(data, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(f"{what} is nested too deeply") from None


def _parse_value_map(raw, dim: int, where: str) -> Vector:
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: value must be an object")
    entries = [0] * dim
    for key, text in raw.items():
        if not re.fullmatch(r"[1-9][0-9]*", key):
            raise DocumentError(
                f"{where}: component key {key!r} is not a positive decimal integer")
        component = int(key)
        if component > dim:
            raise DocumentError(f"{where}: component {component} out of range 1..{dim}")
        if not isinstance(text, str):
            raise DocumentError(f"{where}.{key}: rational values must be strings")
        try:
            entries[component - 1] = parse_rat(text)
        except ValueError as exc:
            raise DocumentError(f"{where}.{key}: {exc}") from None
    return Vector(entries)


def _parse_entries(raw, dim: int, arity: int, monotone: str, where: str):
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: must be a list of entries")
    table = {}
    for pos, item in enumerate(raw):
        path = f"{where}[{pos}]"
        if not isinstance(item, dict) or set(item) != {"args", "value"}:
            raise DocumentError(f"{path}: entries must have exactly 'args' and 'value'")
        args = item["args"]
        if (not isinstance(args, list) or len(args) != arity
                or not all(isinstance(a, int) and not isinstance(a, bool) for a in args)):
            raise DocumentError(f"{path}.args: expected {arity} integer indices")
        if not all(1 <= a <= dim for a in args):
            raise DocumentError(f"{path}.args: indices out of range 1..{dim}")
        if monotone == "strict" and not all(a < b for a, b in zip(args, args[1:])):
            raise DocumentError(f"{path}.args: indices must be strictly increasing")
        if monotone == "weak" and not all(a <= b for a, b in zip(args, args[1:])):
            raise DocumentError(f"{path}.args: indices must be non-decreasing")
        key = tuple(args)
        if key in table:
            raise DocumentError(f"{path}.args: duplicate entry for {key}")
        table[key] = _parse_value_map(item["value"], dim, f"{path}.value")
    return table


def parse_document(data) -> AlgebraDocument:
    """Parse document bytes (or str); raises DocumentError with diagnostics."""
    obj = _load_json(data, "document")
    if not isinstance(obj, dict):
        raise DocumentError("top level: expected an object")
    unknown = set(obj) - {"dim", "bracket", "product", "meta"}
    if unknown:
        raise DocumentError(f"top level: unknown keys {sorted(unknown)}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError("dim: expected a positive integer")
    if dim > MAX_DIM:
        raise DocumentError(f"dim: {dim} exceeds the largest supported dimension {MAX_DIM}")
    if "bracket" not in obj:
        raise DocumentError("bracket: missing (use [] for the zero bracket)")
    bracket = TriBracket(dim, _parse_entries(obj["bracket"], dim, 3, "strict", "bracket"))
    product = None
    if "product" in obj:
        product = CommProduct(dim, _parse_entries(obj["product"], dim, 2, "weak", "product"))
    meta: dict[str, str] = {}
    if "meta" in obj:
        raw_meta = obj["meta"]
        if (not isinstance(raw_meta, dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in raw_meta.items())):
            raise DocumentError("meta: expected an object with string values")
        meta = dict(raw_meta)
    return AlgebraDocument(bracket=bracket, product=product, meta=meta)


def _value_map(vec: Vector) -> dict[str, str]:
    return {str(i + 1): fmt_rat(e) for i, e in enumerate(vec.entries) if e != 0}


def serialize_document(bracket: TriBracket, product: Optional[CommProduct] = None,
                       meta: Optional[dict[str, str]] = None) -> bytes:
    """Canonical UTF-8 JSON bytes; parse ∘ serialize is the identity."""
    obj: dict = {"dim": bracket.dim}
    obj["bracket"] = [{"args": list(key), "value": _value_map(vec)}
                      for key, vec in sorted(bracket.table.items())]
    if product is not None:
        if product.dim != bracket.dim:
            raise DocumentError("bracket and product dimensions differ")
        obj["product"] = [{"args": list(key), "value": _value_map(vec)}
                          for key, vec in sorted(product.table.items())]
    if meta:
        obj["meta"] = {k: meta[k] for k in sorted(meta)}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def parse_matrix(data) -> AutoMatrix:
    """Parse an n×n JSON array of rational strings into a witness matrix."""
    from .morphisms import AutoMatrix

    obj = _load_json(data, "matrix")
    if (not isinstance(obj, list) or not obj
            or not all(isinstance(row, list) and len(row) == len(obj) for row in obj)):
        raise DocumentError("matrix: expected a square array of rows")
    rows = []
    for i, row in enumerate(obj):
        parsed = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise DocumentError(f"matrix[{i}][{j}]: rationals must be strings")
            try:
                parsed.append(parse_rat(cell))
            except ValueError as exc:
                raise DocumentError(f"matrix[{i}][{j}]: {exc}") from None
        rows.append(parsed)
    return AutoMatrix(Matrix.from_rows(rows))


def matrix_payload(m: Matrix) -> list[list[str]]:
    return [[fmt_rat(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
