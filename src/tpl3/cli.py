"""Command-line interface.

Exit codes: 0 all checks pass / classification succeeded; 1 a gating check
failed (including a failed coupling identity); 2 usage or parse error,
including an input file that cannot be read; 3 NeedsExtension /
Unclassified / Unsupported diagnostics; 4 internal error (any other
exception, reported as one ``error:`` line without a traceback).

``main`` restores the default SIGPIPE action where the platform has one, so
a reader that closes stdout early (``tpl3 tp-space FILE | head -1``) ends
the process by that signal, as it ends any Unix filter, with nothing on
stderr; it is not an internal error.

Every subcommand is a ``_cmd_*`` function that computes its result once
and returns ``(code, payload, lines)``: the exit code, the JSON payload and
the text lines.  It prints nothing and does not read ``--format``;
``run_command`` is the one printer.  It prints the lines joined by newlines
for text, and for JSON the payload through ``json.dumps(payload,
indent=2)``, or as it is when the subcommand made it JSON text already:
``fingerprint``'s one line and ``transport``'s canonical document.
``build_parser`` builds the seven subparsers from one table, ``_COMMANDS``.

Every subcommand runs ``linalg``, which is imported here; each other tpl3
module is imported inside the subcommands that run it, so ``check`` loads
neither ``classify`` nor ``derivations``.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .linalg import Singular, Vector, fmt_rat, parse_rat

if TYPE_CHECKING:
    from .algebra import CheckReport, CommProduct
    from .docio import AlgebraDocument

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
    def side(value) -> object:
        return [fmt_rat(c) for c in value] if isinstance(value, Vector) else str(value)

    return {"op": op, "passed": report.passed,
            "witnesses": [{"witness": list(v.witness), "left": side(v.left),
                           "right": side(v.right)} for v in report.violations]}


def _report_lines(title: str, identity: str, report: CheckReport) -> list[str]:
    if report.passed:
        return [f"{title}: PASS"]
    return [f"{title}: FAIL", f"  identity: {identity}",
            *(f"  witness {v.witness}: left = {fmt_vec(v.left)}, right = {fmt_vec(v.right)}"
              for v in report.violations)]


def _read_input(path: str) -> bytes:
    """The bytes of an input file; a path that cannot be read (missing, a
    directory, no permission) is a usage error, not an internal one."""
    from .docio import DocumentError

    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DocumentError(str(exc)) from None


def _load_document(path: str) -> AlgebraDocument:
    from .docio import parse_document

    return parse_document(_read_input(path))


def _product_or_zero(doc: AlgebraDocument) -> CommProduct:
    """The document's product, the zero product if it has none."""
    from .algebra import CommProduct

    return doc.product if doc.product is not None else CommProduct.zero(doc.bracket.dim)


def _cmd_check(args) -> tuple[int, dict | str, list[str]]:
    from .algebra import (CheckReport, check_commutative_associative,
                          check_fundamental_identity, check_transposed_leibniz)

    doc = _load_document(args.file)
    fi = check_fundamental_identity(doc.bracket)
    sections = [("skew-symmetry", "structural: stored on increasing triples", CheckReport(())),
                ("fundamental-identity", FUNDAMENTAL_IDENTITY, fi)]
    gating = [fi]
    informational: list[str] = []
    if doc.product is not None:
        leib = check_transposed_leibniz(doc.bracket, doc.product)
        sections += [("commutativity", "structural: stored on non-decreasing pairs",
                      CheckReport(())),
                     ("transposed-leibniz", COUPLING_IDENTITY, leib),
                     ("associativity", ASSOCIATIVITY, check_commutative_associative(doc.product))]
        gating.append(leib)
        informational.append("associativity")
    passed = all(rep.passed for rep in gating)
    payload = {"op": "check", "passed": passed,
               "data": [_report_payload(name, rep) for name, _, rep in sections],
               "informational": informational}
    lines = [line for name, identity, rep in sections for line in _report_lines(
        name + (" (informational)" if name in informational else ""), identity, rep)]
    return 0 if passed else 1, payload, [*lines, f"overall: {'PASS' if passed else 'FAIL'}"]


def _cmd_derivations(args) -> tuple[int, dict | str, list[str]]:
    from .derivations import DerivationQuery, delta_derivations
    from .docio import matrix_payload

    doc = _load_document(args.file)
    delta = parse_rat(args.delta)
    space = delta_derivations(DerivationQuery(doc.bracket, delta))
    matrices = [matrix_payload(m) for m in space.basis]
    payload = {"op": "derivations", "result": {"delta": fmt_rat(delta), "dim": space.dim},
               "data": matrices}
    lines = [f"delta = {fmt_rat(delta)}; derivation space dimension {space.dim}"]
    for idx, rows in enumerate(matrices):
        lines += [f"basis[{idx}]:", *("  " + "  ".join(row) for row in rows)]
    return 0, payload, lines


def _cmd_tp_space(args) -> tuple[int, dict | str, list[str]]:
    from .derivations import tp_product_space
    from .docio import _value_map

    space = tp_product_space(_load_document(args.file).bracket)
    payload = {"op": "tp-space", "result": {"dim": space.dim}, "data": {
        "free_coordinates": [{"args": list(pair), "component": comp}
                             for pair, comp in space.description],
        "basis": [[{"args": list(key), "value": _value_map(vec)}
                   for key, vec in prod.table.items()] for prod in space.basis]}}
    lines = [f"compatible-product space dimension: {space.dim}",
             "free coordinates (pair, component): "
             + ", ".join(f"e{i}*e{j}[{c}]" for (i, j), c in space.description)]
    for idx, prod in enumerate(space.basis):
        lines.append(f"basis[{idx}]:")
        lines += (["  (zero product)"] if prod.is_zero() else
                  [f"  e{i}*e{j} = {fmt_vec(vec)}" for (i, j), vec in prod.table.items()])
    return 0, payload, lines


def _cmd_transport(args) -> tuple[int, dict | str, list[str]]:
    from .morphisms import transport_bracket, transport_product
    from .docio import parse_matrix, serialize_document

    doc = _load_document(args.file)
    matrix = parse_matrix(_read_input(args.matrix))
    moved_bracket = transport_bracket(doc.bracket, matrix)
    moved_product = None if doc.product is None else transport_product(doc.product, matrix)
    out = serialize_document(moved_bracket, moved_product, doc.meta).decode("utf-8")
    return 0, out, ["transported document:", out]


def _cmd_classify(args) -> tuple[int, dict | str, list[str]]:
    """Classify the document's product; each result type maps, in one
    ``isinstance`` chain, to its exit code, its JSON payload and its text
    lines."""
    from .classify import (Certificate, NeedsExtension, NotTransposedPoisson,
                           Unclassified, Unsupported, classify)
    from .docio import matrix_payload

    doc = _load_document(args.file)
    result = classify(doc.bracket, _product_or_zero(doc))
    if isinstance(result, Certificate):
        witness = matrix_payload(result.witness.map)
        code, kind = 0, "certificate"
        data = {"family": result.family.id,
                "params": {k: fmt_rat(v) for k, v in result.family.params},
                "witness": witness}
        lines = [f"certificate: isomorphic to {result.family}",
                 "witness rows (images of e1,e2,e3):",
                 *("  [" + ", ".join(row) + "]" for row in witness)]
    elif isinstance(result, NotTransposedPoisson):
        code, kind = 1, "not-transposed-poisson"
        data = _report_payload("transposed-leibniz", result.report)
        lines = ["not a transposed Poisson structure; coupling identity fails:",
                 *_report_lines("transposed-leibniz", COUPLING_IDENTITY, result.report)]
    elif isinstance(result, NeedsExtension):
        code, kind = 3, "needs-extension"
        data = {"radicand": fmt_rat(result.radicand), "degree": result.degree}
        lines = [f"needs-extension: requires x**{result.degree} = {data['radicand']}, "
                 f"which has no rational solution"]
    elif isinstance(result, Unclassified):
        code, kind, data = 3, "unclassified", {"reason": result.reason}
        lines = [f"unclassified: {result.reason}"]
    elif isinstance(result, Unsupported):
        code, kind, data = 3, "unsupported", {"reason": result.reason}
        lines = [f"unsupported: {result.reason}"]
    else:
        raise RuntimeError(f"unexpected classification result {result!r}")
    return code, {"op": "classify", "result": kind, "data": data}, lines


def _cmd_verify_paper(args) -> tuple[int, dict | str, list[str]]:
    from .families import CaseId
    from .classify import verify_all_cases, verify_paper_case

    if args.case:
        case = str(CaseId.parse(args.case))
        reports = {case: verify_paper_case(case, seed=args.seed)}
    else:
        reports = verify_all_cases(seed=args.seed)
    passed = all(rep.passed for rep in reports.values())
    payload = {"op": "verify-paper", "passed": passed,
               "data": [{"case": c, **_report_payload("case-suite", rep)}
                        for c, rep in reports.items()]}
    lines = []
    for case, rep in reports.items():
        lines += [f"case {case}: {'PASS' if rep.passed else 'FAIL'}",
                  *(f"  {v.witness}: left = {v.left}, right = {v.right}"
                    for v in rep.violations)]
    return 0 if passed else 1, payload, [*lines, f"overall: {'PASS' if passed else 'FAIL'}"]


def _cmd_fingerprint(args) -> tuple[int, dict | str, list[str]]:
    from .classify import fingerprint

    doc = _load_document(args.file)
    tup = fingerprint(doc.bracket, _product_or_zero(doc))
    return 0, json.dumps({"op": "fingerprint", "result": list(tup)}), [
        "fingerprint (derivation dim, sym-map rank, annihilator dim, "
        "span(A·A) dim, left-mult rank):", f"  {tup}"]


#: each subcommand's name, help and the arguments it takes after ``--format``
#: (flag or name -> ``add_argument`` keywords); ``build_parser`` binds each to
#: the ``_cmd_*`` function of its name when it runs
_COMMANDS = (
    ("check", "verify the defining identities of a document", {"file": {}}),
    ("derivations", "basis of the delta-derivation space of the bracket",
     {"file": {}, "--delta": {"default": "1/3", "help": "nonzero rational (default 1/3)"}}),
    ("tp-space", "solved space of compatible commutative products", {"file": {}}),
    ("transport", "push the document forward along an invertible matrix",
     {"file": {}, "--matrix": {"required": True,
                               "help": "JSON file with an n×n array of rational strings"}}),
    ("classify", "reduce the product onto a canonical family, with certificate "
                 "(absent product = zero product)", {"file": {}}),
    ("verify-paper", "re-check the built-in classification subcases",
     {"--case": {"help": "one subcase like 2-c (default: all sixteen)"},
      "--seed": {"type": int, "default": 0, "help": "draw seed (default 0)"}}),
    ("fingerprint", "transport-invariant integer tuple of the document "
                    "(absent product = zero product)", {"file": {}}),
)


def build_parser() -> argparse.ArgumentParser:
    # one top-level usage and help on every supported Python: 3.13 wraps the
    # {check,...} choices otherwise, and widens the help column to fit them
    parser = argparse.ArgumentParser(
        prog="tpl3",
        description="Exact verification and classification of transposed "
                    "Poisson structures on 3-Lie algebras.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=16))
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
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
        code, payload, lines = args.func(args)
        if args.format == "text":
            print("\n".join(lines))
        else:
            print(payload if isinstance(payload, str) else json.dumps(payload, indent=2))
        return code
    except (ValueError, Singular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
