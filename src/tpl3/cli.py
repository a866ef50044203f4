"""Command-line interface.

Exit codes: 0 all checks pass / classification succeeded; 1 a gating check
failed (including a failed coupling identity); 2 usage or parse error,
including an input file that cannot be read; 3 NeedsExtension /
Unclassified / Unsupported diagnostics; 4 internal error (any other
exception, reported as one ``error:`` line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .linalg import Singular, Vector, fmt_rat, parse_rat
from .algebra import (CheckReport, CommProduct, check_commutative_associative,
                      check_fundamental_identity, check_transposed_leibniz)
from .derivations import DerivationQuery, delta_derivations, tp_product_space
from .morphisms import transport_bracket, transport_product
from .families import ALL_CASES, CaseId
from .classify import (Certificate, NeedsExtension, NotTransposedPoisson,
                       Unclassified, Unsupported, classify, fingerprint,
                       verify_paper_case)
from .docio import (AlgebraDocument, DocumentError, matrix_payload, parse_document,
                    parse_matrix, serialize_document)

FUNDAMENTAL_IDENTITY = "[[x,y,z],u,v] = [[x,u,v],y,z] + [[y,u,v],z,x] + [[z,u,v],x,y]"
COUPLING_IDENTITY = "3 u·[x,y,z] = [u·x,y,z] + [x,u·y,z] + [x,y,u·z]"
ASSOCIATIVITY = "(x·y)·z = x·(y·z)"


def fmt_vec(v: Vector) -> str:
    terms = []
    for i, c in enumerate(v.entries, start=1):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"e{i}")
        elif c == -1:
            terms.append(f"-e{i}")
        else:
            terms.append(f"{fmt_rat(c)}*e{i}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _report_payload(op: str, report: CheckReport) -> dict:
    return {
        "op": op,
        "passed": report.passed,
        "witnesses": [
            {"witness": list(v.witness),
             "left": str(v.left) if not isinstance(v.left, Vector) else [fmt_rat(c) for c in v.left],
             "right": str(v.right) if not isinstance(v.right, Vector) else [fmt_rat(c) for c in v.right]}
            for v in report.violations
        ],
    }


def _print_report_text(title: str, identity: str, report: CheckReport) -> None:
    status = "PASS" if report.passed else "FAIL"
    print(f"{title}: {status}")
    if not report.passed:
        print(f"  identity: {identity}")
        for v in report.violations:
            left = fmt_vec(v.left) if isinstance(v.left, Vector) else str(v.left)
            right = fmt_vec(v.right) if isinstance(v.right, Vector) else str(v.right)
            print(f"  witness {v.witness}: left = {left}, right = {right}")


def _read_input(path: str) -> bytes:
    """The bytes of an input file; a path that cannot be read (missing, a
    directory, no permission) is a usage error, not an internal one."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DocumentError(str(exc)) from None


def _load_document(path: str) -> AlgebraDocument:
    return parse_document(_read_input(path))


def _cmd_check(args) -> int:
    doc = _load_document(args.file)
    fi = check_fundamental_identity(doc.bracket)
    sections = [
        ("skew-symmetry", "structural: stored on increasing triples", CheckReport(())),
        ("fundamental-identity", FUNDAMENTAL_IDENTITY, fi),
    ]
    gating = [fi]
    informational: list[str] = []
    if doc.product is not None:
        leib = check_transposed_leibniz(doc.bracket, doc.product)
        assoc = check_commutative_associative(doc.product)
        sections.append(("commutativity", "structural: stored on non-decreasing pairs",
                         CheckReport(())))
        sections.append(("transposed-leibniz", COUPLING_IDENTITY, leib))
        sections.append(("associativity", ASSOCIATIVITY, assoc))
        gating.append(leib)
        informational.append("associativity")
    passed = all(rep.passed for rep in gating)
    if args.format == "json":
        payload = {"op": "check", "passed": passed,
                   "data": [_report_payload(name, rep) for name, _, rep in sections],
                   "informational": informational}
        print(json.dumps(payload, indent=2))
    else:
        for name, identity, rep in sections:
            note = " (informational)" if name in informational else ""
            _print_report_text(f"{name}{note}", identity, rep)
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_derivations(args) -> int:
    doc = _load_document(args.file)
    delta = parse_rat(args.delta)
    space = delta_derivations(DerivationQuery(doc.bracket, delta))
    if args.format == "json":
        payload = {"op": "derivations", "result": {"delta": fmt_rat(delta),
                                                   "dim": space.dim},
                   "data": [matrix_payload(m) for m in space.basis]}
        print(json.dumps(payload, indent=2))
    else:
        print(f"delta = {fmt_rat(delta)}; derivation space dimension {space.dim}")
        for idx, m in enumerate(space.basis):
            rows = ["  ".join(fmt_rat(m.entry(i, j)) for j in range(m.cols))
                    for i in range(m.rows)]
            print(f"basis[{idx}]:")
            for row in rows:
                print(f"  {row}")
    return 0


def _fmt_product_lines(p: CommProduct) -> list[str]:
    if p.is_zero():
        return ["  (zero product)"]
    return [f"  e{i}*e{j} = {fmt_vec(vec)}" for (i, j), vec in p.table.items()]


def _cmd_tp_space(args) -> int:
    doc = _load_document(args.file)
    space = tp_product_space(doc.bracket)
    if args.format == "json":
        payload = {"op": "tp-space", "result": {"dim": space.dim},
                   "data": {
                       "free_coordinates": [
                           {"args": list(pair), "component": comp}
                           for (pair, comp) in space.description],
                       "basis": [
                           [{"args": list(key), "value": {str(ci + 1): fmt_rat(c)
                                                          for ci, c in enumerate(vec) if c != 0}}
                            for key, vec in prod.table.items()]
                           for prod in space.basis],
                   }}
        print(json.dumps(payload, indent=2))
    else:
        print(f"compatible-product space dimension: {space.dim}")
        print("free coordinates (pair, component): "
              + ", ".join(f"e{i}*e{j}[{c}]" for (i, j), c in space.description))
        for idx, prod in enumerate(space.basis):
            print(f"basis[{idx}]:")
            for line in _fmt_product_lines(prod):
                print(line)
    return 0


def _cmd_transport(args) -> int:
    doc = _load_document(args.file)
    matrix = parse_matrix(_read_input(args.matrix))
    moved_bracket = transport_bracket(doc.bracket, matrix)
    moved_product = (transport_product(doc.product, matrix)
                     if doc.product is not None else None)
    out = serialize_document(moved_bracket, moved_product, doc.meta)
    if args.format == "json":
        sys.stdout.write(out.decode("utf-8") + "\n")
    else:
        print("transported document:")
        print(out.decode("utf-8"))
    return 0


def _classify_payload(result) -> tuple[int, dict]:
    if isinstance(result, Certificate):
        return 0, {"result": "certificate",
                   "data": {"family": result.family.id,
                            "params": {k: fmt_rat(v) for k, v in result.family.params},
                            "witness": matrix_payload(result.witness.map)}}
    if isinstance(result, NotTransposedPoisson):
        return 1, {"result": "not-transposed-poisson",
                   "data": _report_payload("transposed-leibniz", result.report)}
    if isinstance(result, NeedsExtension):
        return 3, {"result": "needs-extension",
                   "data": {"radicand": fmt_rat(result.radicand),
                            "degree": result.degree}}
    if isinstance(result, Unclassified):
        return 3, {"result": "unclassified", "data": {"reason": result.reason}}
    if isinstance(result, Unsupported):
        return 3, {"result": "unsupported", "data": {"reason": result.reason}}
    raise RuntimeError(f"unexpected classification result {result!r}")


def _cmd_classify(args) -> int:
    doc = _load_document(args.file)
    product = doc.product if doc.product is not None else CommProduct.zero(doc.bracket.dim)
    result = classify(doc.bracket, product)
    code, payload = _classify_payload(result)
    if args.format == "json":
        print(json.dumps({"op": "classify", **payload}, indent=2))
    else:
        kind = payload["result"]
        if kind == "certificate":
            data = payload["data"]
            params = ", ".join(f"{k}={v}" for k, v in data["params"].items())
            print(f"certificate: isomorphic to {data['family']}({params})")
            print("witness rows (images of e1,e2,e3):")
            for row in data["witness"]:
                print("  [" + ", ".join(row) + "]")
        elif kind == "not-transposed-poisson":
            print("not a transposed Poisson structure; coupling identity fails:")
            _print_report_text("transposed-leibniz", COUPLING_IDENTITY, result.report)
        elif kind == "needs-extension":
            d = payload["data"]
            print(f"needs-extension: requires x**{d['degree']} = {d['radicand']}, "
                  f"which has no rational solution")
        else:
            print(f"{kind}: {payload['data']['reason']}")
    return code


def _cmd_verify_paper(args) -> int:
    cases = [CaseId.parse(args.case)] if args.case else list(ALL_CASES)
    all_passed = True
    results = []
    for case in cases:
        report = verify_paper_case(case, seed=args.seed)
        results.append((case, report))
        all_passed = all_passed and report.passed
    if args.format == "json":
        payload = {"op": "verify-paper", "passed": all_passed,
                   "data": [{"case": str(c), **_report_payload("case-suite", rep)}
                            for c, rep in results]}
        print(json.dumps(payload, indent=2))
    else:
        for case, rep in results:
            print(f"case {case}: {'PASS' if rep.passed else 'FAIL'}")
            for v in rep.violations:
                print(f"  {v.witness}: left = {v.left}, right = {v.right}")
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _cmd_fingerprint(args) -> int:
    doc = _load_document(args.file)
    product = doc.product if doc.product is not None else CommProduct.zero(doc.bracket.dim)
    tup = fingerprint(doc.bracket, product)
    if args.format == "json":
        print(json.dumps({"op": "fingerprint", "result": list(tup)}))
    else:
        print("fingerprint (derivation dim, sym-map rank, annihilator dim, "
              "span(A·A) dim, left-mult rank):")
        print("  " + str(tup))
    return 0


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default: text)")

    parser = argparse.ArgumentParser(
        prog="tpl3",
        description="Exact verification and classification of transposed "
                    "Poisson structures on 3-Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[fmt],
                       help="verify the defining identities of a document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derivations", parents=[fmt],
                       help="basis of the delta-derivation space of the bracket")
    p.add_argument("file")
    p.add_argument("--delta", default="1/3", help="nonzero rational (default 1/3)")
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("tp-space", parents=[fmt],
                       help="solved space of compatible commutative products")
    p.add_argument("file")
    p.set_defaults(func=_cmd_tp_space)

    p = sub.add_parser("transport", parents=[fmt],
                       help="push the document forward along an invertible matrix")
    p.add_argument("file")
    p.add_argument("--matrix", required=True,
                   help="JSON file with an n×n array of rational strings")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("classify", parents=[fmt],
                       help="reduce the product onto a canonical family, with "
                            "certificate (absent product = zero product)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-paper", parents=[fmt],
                       help="re-check the built-in classification subcases")
    p.add_argument("--case", help="one subcase like 2-c (default: all sixteen)")
    p.add_argument("--seed", type=int, default=0, help="draw seed (default 0)")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("fingerprint", parents=[fmt],
                       help="transport-invariant integer tuple of the document "
                            "(absent product = zero product)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_fingerprint)

    return parser


#: a negative fraction: argparse passes a token starting with ``-`` as an
#: option's value only when it is a plain negative number such as ``-2``
_NEGATIVE_FRACTION = re.compile(r"-[0-9]+/[0-9]+")


def _join_negative_delta(argv: list[str]) -> list[str]:
    """``derivations`` arguments with ``--delta -2/5`` rewritten as
    ``--delta=-2/5``, the form argparse accepts (also for an abbreviation
    such as ``--del``).  Every other token, and everything after ``--``, is
    left for argparse and ``parse_rat`` to judge."""
    if argv[:1] != ["derivations"]:
        return argv
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE_FRACTION.fullmatch(tok) and len(prev) > 2
                and "--delta".startswith(prev) and "--" not in out):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_delta(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, Singular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
