"""Exact, independent checks of tpl3's outputs.

Results are first reduced to neutral records (plain dicts), from in-process
result objects or from the CLI's JSON, outside the timed region.  Every
check is an exact equality computed with ``exact``; nothing reuses the tpl3
code under test.

An operation has failed when it raised or timed out, when its certificate
does not re-transport onto the canonical table it names, when its
NeedsExtension radicand has a rational root, or when its result kind
contradicts how the input was built (NotTransposedPoisson for an input in
the family, anything else for an input outside it).  ``Unclassified`` for an
input built with a rational witness is not a failure; it only lowers the
certified fraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import exact
from exact import F
from inputs import Label, parse_document_bytes


@dataclass(frozen=True)
class Verdict:
    ok: bool
    outcome: str         # the result kind, or "error" / "timeout"
    reason: str = ""
    certified: bool = False


# --- neutral records ----------------------------------------------------------

def record_from_result(result) -> dict:
    """Neutral record of an in-process classify result."""
    kind = type(result).__name__
    if kind == "Certificate":
        m = result.witness.map
        return {"kind": "certificate", "family": result.family.id,
                "params": dict(result.family.params),
                "witness": tuple(tuple(m.entry(i, j) for j in range(3)) for i in range(3))}
    if kind == "NeedsExtension":
        return {"kind": "needs_extension", "radicand": result.radicand,
                "degree": result.degree}
    if kind == "NotTransposedPoisson":
        return {"kind": "not_tp"}
    if kind == "Unclassified":
        return {"kind": "unclassified", "reason": result.reason}
    if kind == "Unsupported":
        return {"kind": "unsupported"}
    return {"kind": "error", "reason": f"unexpected result {result!r}"}


_CLI_KINDS = {"certificate": "certificate", "needs-extension": "needs_extension",
              "not-transposed-poisson": "not_tp", "unclassified": "unclassified",
              "unsupported": "unsupported"}
_CLI_EXIT = {"certificate": 0, "not_tp": 1, "needs_extension": 3,
             "unclassified": 3, "unsupported": 3}


def record_from_cli(payload: dict) -> dict:
    kind = _CLI_KINDS.get(payload.get("result"), "error")
    data = payload.get("data", {})
    if kind == "certificate":
        return {"kind": kind, "family": data["family"],
                "params": {k: F(v) for k, v in data["params"].items()},
                "witness": tuple(tuple(F(x) for x in row) for row in data["witness"])}
    if kind == "needs_extension":
        return {"kind": kind, "radicand": F(data["radicand"]), "degree": data["degree"]}
    return {"kind": kind, "reason": str(data)}


# --- classify -----------------------------------------------------------------

def check_classify(product: dict, label: Label, record: dict) -> Verdict:
    kind = record["kind"]
    if kind in ("error", "timeout"):
        return Verdict(False, kind, record.get("reason", ""))
    if not label.in_family:
        if kind != "not_tp":
            return Verdict(False, kind, "input outside the family was not rejected")
        return Verdict(True, kind)
    if kind == "not_tp":
        return Verdict(False, kind, "input in the family was rejected")
    if kind == "unsupported":
        return Verdict(False, kind, "the bracket is [e1,e2,e3] = e1")
    if kind == "needs_extension":
        if exact.has_rational_root(record["radicand"], record["degree"]):
            return Verdict(False, kind, f"radicand {record['radicand']} has a rational "
                                        f"root of degree {record['degree']}")
        return Verdict(True, kind)
    if kind == "certificate":
        reason = certificate_error(product, record)
        if reason:
            return Verdict(False, kind, reason)
        return Verdict(True, kind, certified=label.witnessed)
    return Verdict(True, kind)


def certificate_error(product: dict, record: dict) -> str:
    """Empty when the witness is an A3 automorphism that moves ``product``
    exactly onto the canonical table it names; else the reason."""
    m = record["witness"]
    if not exact.is_a3_automorphism(m):
        return "witness is not an automorphism of [e1,e2,e3] = e1"
    family, params = record["family"], record["params"]
    if tuple(params) != exact.FAMILY_PARAMS.get(family):
        return f"unknown family or parameters {family} {sorted(params)}"
    if exact.push_product(product, m) != exact.family_table(family, params):
        return "witness does not move the input onto the named table"
    return ""


# --- spaces -------------------------------------------------------------------

def check_spaces(b: dict, n: int, is_3lie, fi: set, deriv: tuple, space: tuple) -> Verdict:
    """``fi`` is the reported violation set; ``deriv`` the derivation basis
    as n x n row tuples; ``space`` is (basis products, free coordinates)."""
    expected_fi = exact.fi_violations(b, n)
    if fi != expected_fi:
        return Verdict(False, "error", "fundamental-identity violations differ")
    if is_3lie and fi:
        return Verdict(False, "error", "a 3-Lie bracket failed the fundamental identity")

    third = F(1, 3)
    if not all(exact.is_delta_derivation(b, n, third, m) for m in deriv):
        return Verdict(False, "error", "a basis map is not a 1/3-derivation")
    flat = [dict(enumerate(x for row in m for x in row)) for m in deriv]
    if exact.rank_mod_p(flat) != len(deriv):
        return Verdict(False, "error", "derivation basis is dependent")
    if len(deriv) != n * n - exact.rank_mod_p(exact.derivation_system(b, n, third)):
        return Verdict(False, "error", "derivation space has the wrong dimension")

    basis, free = space
    if len(free) != len(basis):
        return Verdict(False, "error", "one free coordinate per basis product expected")
    for idx, p in enumerate(basis):
        if exact.coupling_violations(b, p, n):
            return Verdict(False, "error", "a basis product fails the coupling identity")
        for other, (pair, comp) in enumerate(free):
            if exact.basis_product(p, n, *pair)[comp - 1] != (1 if other == idx else 0):
                return Verdict(False, "error", "basis is not in free-coordinate form")
    rows, ncols = exact.product_system(b, n)
    if len(basis) != ncols - exact.rank_mod_p(rows):
        return Verdict(False, "error", "product space has the wrong dimension")
    return Verdict(True, "ok")


# --- cli ----------------------------------------------------------------------

def fingerprint(b: dict, p: dict, n: int) -> list:
    third = F(1, 3)
    deriv_dim = n * n - exact.rank_exact(
        [exact.dense(row, n * n) for row in exact.derivation_system(b, n, third)])
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    bp = lambda i, j: exact.basis_product(p, n, i, j)
    sym_rank = exact.rank_exact([[bp(i, j)[t] for (i, j) in pairs] for t in range(n)])
    stacked = exact.rank_exact([[bp(i, j)[t] for j in range(1, n + 1) for t in range(n)]
                                for i in range(1, n + 1)])
    aa_dim = exact.rank_exact([list(bp(i, j)) for (i, j) in pairs])
    return [deriv_dim, sym_rank, n - stacked, aa_dim, stacked]


def check_cli(item, code: int, stdout: bytes) -> Verdict:
    """Check one CLI call (an ``inputs.CliInput``) from its exit code and
    standard output."""
    try:
        if item.command == "transport":
            bracket, n, product = parse_document_bytes(stdout)
            payload = None
        else:
            payload = json.loads(stdout)
    except (ValueError, KeyError) as exc:
        return Verdict(False, "error", f"unparsable output: {exc}")
    b, n, _ = parse_document_bytes(item.document)
    p = item.product
    if item.command == "classify":
        record = record_from_cli(payload)
        verdict = check_classify(p, item.label, record)
        if verdict.ok and code != _CLI_EXIT.get(record["kind"]):
            return Verdict(False, record["kind"], f"exit code {code}")
        return verdict
    if item.command == "check":
        sections = {s["op"]: s["passed"] for s in payload["data"]}
        fi_ok = not exact.fi_violations(b, n)
        expected = {"fundamental-identity": fi_ok}
        if "product" in json.loads(item.document):
            expected["transposed-leibniz"] = not exact.coupling_violations(b, p, n)
            expected["associativity"] = exact.associativity_holds(p, n)
        passed = fi_ok and expected.get("transposed-leibniz", True)
        if any(sections.get(k) != v for k, v in expected.items()):
            return Verdict(False, "error", "a section verdict is wrong")
        if payload["passed"] != passed or code != (0 if passed else 1):
            return Verdict(False, "error", "overall verdict or exit code is wrong")
        return Verdict(True, "passed" if passed else "failed")
    if item.command == "fingerprint":
        if payload["result"] != fingerprint(b, p, n) or code != 0:
            return Verdict(False, "error", "fingerprint differs")
        return Verdict(True, "ok")
    if (code != 0 or bracket != exact.push_bracket(b, item.matrix)
            or (product or {}) != exact.push_product(p, item.matrix)):
        return Verdict(False, "error", "transported document differs")
    return Verdict(True, "ok")
