"""Spans and counters around calls into tpl3, recorded from benchmark code.

``Tracer.install`` replaces every public function of the tpl3 modules, in
every tpl3 namespace that binds it, by a wrapper that records a span
(name, start, end, parent, operation id) in memory; ``uninstall`` puts the
originals back.  ``bracket_eval`` and ``product_eval`` are too hot for
spans and get counters only; the scalar helpers ``rat``, ``parse_rat`` and
``fmt_rat`` are not layer boundaries and stay unwrapped.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("linalg", "algebra", "derivations", "morphisms", "families", "classify",
           "docio", "cli")
COUNT_ONLY = {"algebra.bracket_eval", "algebra.product_eval"}
UNWRAPPED = {"linalg.rat", "linalg.parse_rat", "linalg.fmt_rat", "cli.main"}
HOOK = "perfbench.hook"

#: (metric, unit, workload whose traced slice it is read from)
PER_LAYER = [
    ("linalg.rref.calls", "count", "spaces"),
    ("linalg.rref.self_s", "s", "spaces"),
    ("linalg.rref.input_cells", "count", "spaces"),
    ("linalg.solve_affine.calls", "count", "classify-mix"),
    ("linalg.solve_affine.self_s", "s", "classify-mix"),
    ("linalg.solve_affine.infeasible", "count", "classify-mix"),
    ("linalg.invert.calls", "count", "classify-mix"),
    ("linalg.invert.self_s", "s", "classify-mix"),
    ("linalg.determinant.calls", "count", "classify-mix"),
    ("linalg.determinant.self_s", "s", "classify-mix"),
    ("linalg.rational_root.calls", "count", "classify-mix"),
    ("linalg.rational_root.self_s", "s", "classify-mix"),
    ("linalg.rational_root.none", "count", "classify-mix"),
    ("linalg.rational_root.max_radicand_digits", "digits", "classify-mix"),
    ("algebra.check_transposed_leibniz.calls", "count", "classify-mix"),
    ("algebra.check_transposed_leibniz.self_s", "s", "classify-mix"),
    ("algebra.check_transposed_leibniz.violations", "count", "classify-mix"),
    ("algebra.check_fundamental_identity.calls", "count", "spaces"),
    ("algebra.check_fundamental_identity.self_s", "s", "spaces"),
    ("algebra.check_fundamental_identity.violations", "count", "spaces"),
    ("algebra.family_coordinates.calls", "count", "classify-mix"),
    ("algebra.family_coordinates.self_s", "s", "classify-mix"),
    ("algebra.bracket_eval.calls", "count", "classify-mix"),
    ("algebra.product_eval.calls", "count", "classify-mix"),
    ("derivations.build_product_system.self_s", "s", "spaces"),
    ("derivations.build_product_system.rows", "count", "spaces"),
    ("derivations.build_product_system.nonzero_rows", "count", "spaces"),
    ("derivations.build_product_system.distinct_rows", "count", "spaces"),
    ("derivations.build_product_system.density", "ratio", "spaces"),
    ("derivations.tp_product_space.self_s", "s", "spaces"),
    ("derivations.build_derivation_system.self_s", "s", "spaces"),
    ("derivations.delta_derivations.self_s", "s", "spaces"),
    ("morphisms.transport_product.calls", "count", "classify-mix"),
    ("morphisms.transport_product.self_s", "s", "classify-mix"),
    ("morphisms.a3_automorphism_check.calls", "count", "classify-mix"),
    ("morphisms.automatrix_constructions", "count", "classify-mix"),
    ("families.detect_case.calls", "count", "classify-mix"),
    ("families.detect_case.self_s", "s", "classify-mix"),
    ("families.detect_case.none", "count", "classify-mix"),
    ("families.instantiate_family.calls", "count", "classify-mix"),
    ("families.instantiate_family.self_s", "s", "classify-mix"),
    ("classify.classify.calls", "count", "classify-mix"),
    ("classify.classify.self_s", "s", "classify-mix"),
    ("classify.normalize.certificate.calls", "count", "classify-mix"),
    ("classify.normalize.certificate.self_s", "s", "classify-mix"),
    ("classify.normalize.needs_extension.calls", "count", "classify-mix"),
    ("classify.normalize.needs_extension.self_s", "s", "classify-mix"),
    ("classify.normalize.unclassified.calls", "count", "classify-mix"),
    ("classify.normalize.unclassified.self_s", "s", "classify-mix"),
    ("classify.certificate_validate.calls", "count", "classify-mix"),
    ("classify.certificate_validate.self_s", "s", "classify-mix"),
    ("classify.validations_per_certificate", "ratio", "classify-mix"),
    ("classify.solve_affine_per_normalize", "ratio", "classify-mix"),
    ("classify.fingerprint.calls", "count", "cli-docs"),
    ("classify.fingerprint.self_s", "s", "cli-docs"),
    ("docio.parse_document.calls", "count", "cli-docs"),
    ("docio.parse_document.self_s", "s", "cli-docs"),
    ("docio.parse_document.bytes", "bytes", "cli-docs"),
    ("docio.serialize_document.calls", "count", "cli-docs"),
    ("docio.serialize_document.self_s", "s", "cli-docs"),
    ("docio.serialize_document.bytes", "bytes", "cli-docs"),
    ("cli.interpreter_start_ms", "ms", "cli-docs"),
    ("cli.import_ms", "ms", "cli-docs"),
    ("cli.run_command.classify.self_ms", "ms", "cli-docs"),
    ("cli.run_command.check.self_ms", "ms", "cli-docs"),
    ("cli.run_command.fingerprint.self_ms", "ms", "cli-docs"),
    ("cli.run_command.transport.self_ms", "ms", "cli-docs"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.saved: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if post is not None:
                    self._hook(post, span, args, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if post is not None:
                self._hook(post, span, args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, post, span, args, result, exc) -> None:
        """Run a metric hook as its own span, so its cost is not charged to
        the caller's self time."""
        hook = [HOOK, perf_counter(), 0.0, span[3], self.op]
        self.spans.append(hook)
        post(span, args, result, exc)
        hook[2] = perf_counter()

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metric hooks ----------------------------------------------------------

    def _posts(self) -> dict:
        c = self.counts

        def rref(span, args, result, exc):
            c["linalg.rref.input_cells"] += args[0].rows * args[0].cols

        def solve_affine(span, args, result, exc):
            if type(exc).__name__ == "Infeasible":
                c["linalg.solve_affine.infeasible"] += 1

        def rational_root(span, args, result, exc):
            if exc is None and result is None:
                c["linalg.rational_root.none"] += 1
            q = args[0]
            digits = max(len(str(abs(q.numerator))), len(str(q.denominator)))
            c["linalg.rational_root.max_radicand_digits"] = max(
                c["linalg.rational_root.max_radicand_digits"], digits)

        def violations(name):
            def post(span, args, result, exc):
                if result is not None:
                    c[name + ".violations"] += len(result.violations)
            return post

        def product_system(span, args, result, exc):
            if result is None:
                return
            m = result[0]
            rows = m.row_lists()
            nonzero = [tuple(r) for r in rows if any(r)]
            c["derivations.build_product_system.rows"] += m.rows
            c["derivations.build_product_system.nonzero_rows"] += len(nonzero)
            c["derivations.build_product_system.distinct_rows"] += len(set(nonzero))
            c["derivations.build_product_system.nonzero_cells"] += sum(
                1 for r in nonzero for x in r if x)
            c["derivations.build_product_system.cells"] += m.rows * m.cols

        def detect_case(span, args, result, exc):
            if exc is None and result is None:
                c["families.detect_case.none"] += 1

        def normalize(span, args, result, exc):
            kind = {"Certificate": "certificate", "NeedsExtension": "needs_extension",
                    "Unclassified": "unclassified"}.get(type(result).__name__, "other")
            span[0] = f"classify.normalize.{kind}"

        def classify(span, args, result, exc):
            if type(result).__name__ == "Certificate":
                c["classify.certificates"] += 1

        def parse_document(span, args, result, exc):
            c["docio.parse_document.bytes"] += len(args[0])

        def serialize_document(span, args, result, exc):
            if result is not None:
                c["docio.serialize_document.bytes"] += len(result)

        def run_command(span, args, result, exc):
            span[0] = f"cli.run_command.{args[0][0]}"

        return {
            "linalg.rref": rref,
            "linalg.solve_affine": solve_affine,
            "linalg.rational_root": rational_root,
            "algebra.check_transposed_leibniz": violations("algebra.check_transposed_leibniz"),
            "algebra.check_fundamental_identity": violations("algebra.check_fundamental_identity"),
            "derivations.build_product_system": product_system,
            "families.detect_case": detect_case,
            "classify.normalize": normalize,
            "classify.classify": classify,
            "docio.parse_document": parse_document,
            "docio.serialize_document": serialize_document,
            "cli.run_command": run_command,
        }

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"tpl3.{name}") for name in MODULES}
        namespaces = [importlib.import_module("tpl3"), *modules.values()]
        posts = self._posts()
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("tpl3.") or id(obj) in wrapped):
                    continue
                name = f"{obj.__module__[5:]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = self._counter(name + ".calls", obj)
                else:
                    wrapped[id(obj)] = self._span(name, obj, posts.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self.saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])
        cert = modules["classify"].Certificate
        auto = modules["morphisms"].AutoMatrix
        self.saved.append((cert, "validate", cert.validate))
        cert.validate = self._span("classify.certificate_validate", cert.validate)
        self.saved.append((auto, "__post_init__", auto.__post_init__))
        auto.__post_init__ = self._counter("morphisms.automatrix_constructions",
                                           auto.__post_init__)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self.saved):
            setattr(ns, attr, obj)
        self.saved.clear()

    # -- results ---------------------------------------------------------------

    def start_slice(self) -> int:
        """Reset the counters; return the index of the slice's first span."""
        self.counts.clear()
        return len(self.spans)

    def aggregate(self, first: int = 0) -> dict:
        """calls and self_s per span name, for spans from index ``first`` on,
        plus the counters; ``*.self_ms`` is the mean self time per call."""
        spans = self.spans
        covered = defaultdict(float)
        for span in spans[first:]:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        calls, self_s = Counter(), defaultdict(float)
        for idx in range(first, len(spans)):
            name, start, end = spans[idx][0], spans[idx][1], spans[idx][2]
            calls[name] += 1
            self_s[name] += (end - start) - covered[idx]
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.self_ms"] = 1000 * self_s[name] / calls[name]
        out.update(self.counts)
        c = out
        if c.get("derivations.build_product_system.cells"):
            c["derivations.build_product_system.density"] = (
                c["derivations.build_product_system.nonzero_cells"]
                / c["derivations.build_product_system.cells"])
        certs = c.get("classify.certificates", 0)
        if certs:
            c["classify.validations_per_certificate"] = (
                c.get("classify.certificate_validate.calls", 0) / certs)
        normalizes = sum(calls[f"classify.normalize.{k}"]
                         for k in ("certificate", "needs_extension", "unclassified", "other"))
        if normalizes:
            c["classify.solve_affine_per_normalize"] = (
                self._calls_under("linalg.solve_affine", "classify.normalize", first)
                / normalizes)
        return out

    def _calls_under(self, name: str, ancestor: str, first: int) -> int:
        spans = self.spans
        count = 0
        for span in spans[first:]:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= first:
                if spans[parent][0].startswith(ancestor):
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def write(self, path: Path) -> None:
        """All spans, one per line: name, start, end, parent, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
