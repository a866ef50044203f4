"""Seeded benchmark of tpl3: classify throughput, space-solve time and CLI
latency, with exact output checks and a traced per-module run.

Run from the root of a source checkout (tpl3 is imported from ``src``)::

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  With
``--trace 0`` it measures the end-to-end metrics untraced; with ``--trace 1``
it runs the traced per-module slices instead.  The report lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts
(result files, spans, scratch documents) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: end-to-end metrics, as listed in BENCHMARK.json: (name, unit)
END_TO_END = (("ops_per_s", "1/s"), ("latency_tail_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_RUNS = 9
START_RUNS = 7
#: tail percentiles; deeper ones measure the shared machine's jitter more
#: than the program
PERCENTILES = (50, 75, 90, 95, 99)
#: rounds per traced slice: a fixed amount of work, so per-layer totals
#: compare across versions of the program
TRACE_ROUNDS = {"classify-mix": 150, "classify-bigcoef": 1, "spaces": 1, "cli-docs": 4}
TRACE_SWEEP = ("classify-mix", "spaces", "cli-docs")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_tpl3():
    src = ROOT / "src"
    if not (src / "tpl3" / "__init__.py").is_file():
        fail(f"no tpl3 sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import tpl3
    if Path(tpl3.__file__).resolve().parent != (src / "tpl3").resolve():
        fail(f"imported tpl3 from {tpl3.__file__}, not from {src}")
    return tpl3


# --- statistics --------------------------------------------------------------

def quantile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(values) -> tuple[float, float]:
    """The highest percentile of the ladder with at least ten samples beyond
    it, and its value."""
    n = len(values)
    usable = [p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10] or [50]
    return usable[-1], quantile(values, usable[-1])


def child_seconds(args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def setup_seconds(workload: str, reference) -> list[tuple[float, float]]:
    """Set-up time in fresh interpreters: ``import tpl3`` plus the fixed
    objects of the workload, as measured inside each child; each with the
    machine's slowdown measured right after it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload],
                              cwd=ROOT, env=env, check=True, capture_output=True,
                              timeout=60)
        out.append((float(proc.stdout.decode().split()[-1]), reference.slowdown()))
    return out


# --- untraced runs -------------------------------------------------------------

def block_rates(workload: str, samples, corrected: bool) -> list[float]:
    """Operations per busy second in each block of rounds, optionally
    multiplied by the block's slowdown."""
    size = workloads.BLOCK_ROUNDS[workload]
    ops: dict[int, int] = {}
    busy: dict[int, float] = {}
    for s in samples:
        block = s.round // size
        ops[block] = ops.get(block, 0) + 1
        busy[block] = busy.get(block, 0.0) + (s.seconds / s.slowdown if corrected else s.seconds)
    return [ops[b] / busy[b] for b in sorted(ops)]


def summarize(workload: str, samples, setup: list[tuple[float, float]],
              rss_mb: float) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit, n, note).

    Times are divided by the slowdown of the machine measured beside them
    (see ``workloads.Reference``); the ``*_raw`` lines give them undivided.
    """
    lat_ms = [1000 * s.seconds / s.slowdown for s in samples]
    raw_ms = [1000 * s.seconds for s in samples]
    failed = sum(not s.verdict.ok for s in samples)
    rates = block_rates(workload, samples, corrected=True)
    pct, tail_ms = tail(lat_ms)
    n = len(samples)
    by_class: dict[str, list] = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s)
    setup_corrected = [t / slowdown for t, slowdown in setup]
    m = {
        "ops_per_s": (statistics.median(rates), "1/s", len(rates),
                      "median over blocks of operations per busy second"),
        "latency_tail_ms": (tail_ms, "ms", n, f"p{pct}"),
        "setup_s": (statistics.median(setup_corrected), "s", len(setup),
                    "median of fresh interpreters"),
        "peak_rss_mb": (rss_mb, "MB", 1,
                        "largest child" if workload == "cli-docs" else "benchmark process"),
        "ops_per_s_raw": (statistics.median(block_rates(workload, samples, corrected=False)),
                          "1/s", len(rates), "not divided by the slowdown"),
        "latency_tail_ms_raw": (tail(raw_ms)[1], "ms", n, f"p{tail(raw_ms)[0]}"),
        "setup_s_raw": (statistics.median(t for t, _ in setup), "s", len(setup), ""),
        "machine_slowdown": (statistics.median(s.slowdown for s in samples), "ratio", n,
                             "reference time over its nominal time"),
        "busy_s": (sum(raw_ms) / 1000, "s", n, "summed duration of the timed calls"),
        "fail_frac": (failed / n, "ratio", n, ""),
    }
    if workload != "classify-mix":
        m["latency_p50_ms"] = (quantile(lat_ms, 50), "ms", n, "")
    if workload.startswith("classify"):
        witnessed = [s for s in samples if s.witnessed]
        m["certified_frac"] = (sum(s.verdict.certified for s in witnessed) / len(witnessed),
                               "ratio", len(witnessed), "")
    if workload == "classify-bigcoef":
        done = [1000 * s.seconds / s.slowdown for s in samples if s.verdict.outcome != "timeout"]
        m["slowest_completed_ms"] = (max(done), "ms", len(done), "calls within the limit")
    if workload == "classify-mix":
        for key, cls in (("incase_p50_ms", "witness"), ("orbit_p50_ms", "orbit")):
            vals = [1000 * s.seconds / s.slowdown for s in by_class[cls]]
            m[key] = (quantile(vals, 50), "ms", len(vals), f"class {cls}")
    if workload == "spaces":
        for key, cls in (("lie_solve_p50_s", "structured"), ("dense_solve_p50_s", "dense")):
            vals = [s.seconds / s.slowdown for s in by_class[cls]]
            m[key] = (quantile(vals, 50), "s", len(vals), f"class {cls}")
    for cls, group in sorted(by_class.items()):
        vals = [1000 * s.seconds / s.slowdown for s in group]
        m[f"class.{cls}.p50_ms"] = (quantile(vals, 50), "ms", len(vals), "")
    return m


def outcome_counts(samples) -> dict:
    counts: dict[str, int] = {}
    for s in samples:
        key = f"{s.cls}:{s.verdict.outcome}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def run_untraced(tpl3, workload: str, seed: int, seconds: float) -> dict:
    reference = workloads.Reference(workloads.REFERENCE_REPEATS[workload])
    setup = setup_seconds(workload, reference)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = workloads.make_runner(tpl3, workload, ROOT, work)
    workloads.warm_up(runner, workload, seed)
    rng = inputs.make_rng(seed, workload)
    t0 = time.perf_counter()
    samples = workloads.run_rounds(runner, rng, workloads.rounds_for(workload, seconds),
                                   workloads.BLOCK_ROUNDS[workload], reference)
    wall = time.perf_counter() - t0
    if workload == "cli-docs":
        rss_mb = runner.child_peak_rss_mb(runner.make_round(rng))
    else:
        rss_mb = workloads.self_peak_rss_mb()
    metrics = summarize(workload, samples, setup, rss_mb)
    failures = [f"{s.cls}: {s.verdict.outcome} {s.verdict.reason}"
                for s in samples if not s.verdict.ok]
    shares: dict[str, int] = {}
    for s in samples:
        shares[s.cls] = shares.get(s.cls, 0) + 1
    return {
        "workload": workload, "metrics": metrics, "attempted": len(samples),
        "failed": len(failures), "failures": failures[:20],
        "rounds": workloads.rounds_for(workload, seconds),
        "class_shares": {c: k / len(samples) for c, k in sorted(shares.items())},
        "outcomes": outcome_counts(samples), "wall_s": wall,
        "setup_runs": [{"s": t, "slowdown": k} for t, k in setup],
    }


# --- traced runs ---------------------------------------------------------------

def run_slice(tpl3, tracer, workload: str, seed: int) -> dict:
    """The same fixed rounds untraced, then traced; per-layer numbers and
    the tracing overhead of the slice (busy times divided by the machine's
    slowdown, as in the untraced runs)."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    runner = workloads.make_runner(tpl3, workload, ROOT, work, in_process=True)
    workloads.warm_up(runner, workload, seed)
    rounds = TRACE_ROUNDS[workload]
    reference = workloads.Reference(workloads.REFERENCE_REPEATS[workload])
    block = workloads.BLOCK_ROUNDS[workload]
    plain = workloads.run_rounds(runner, inputs.make_rng(seed, workload), rounds, block,
                                 reference)

    call = runner.call

    def traced_call(obj):
        tracer.op += 1
        return call(obj)

    runner.call = traced_call
    first = tracer.start_slice()
    tracer.install()
    try:
        traced = workloads.run_rounds(runner, inputs.make_rng(seed, workload), rounds,
                                      block, reference)
    finally:
        tracer.uninstall()
    layer = tracer.aggregate(first)
    if workload == "cli-docs":
        start = statistics.median(child_seconds(["-c", "pass"]) for _ in range(START_RUNS))
        imported = statistics.median(child_seconds(["-c", "import tpl3"])
                                     for _ in range(START_RUNS))
        layer["cli.interpreter_start_ms"] = 1000 * start
        layer["cli.import_ms"] = 1000 * (imported - start)
    busy_plain = sum(s.seconds / s.slowdown for s in plain)
    busy_traced = sum(s.seconds / s.slowdown for s in traced)
    samples = plain + traced
    return {
        "workload": workload, "rounds": rounds, "ops": len(traced),
        "untraced_busy_s": busy_plain, "traced_busy_s": busy_traced,
        "overhead": busy_traced / busy_plain - 1, "layer": layer,
        "attempted": len(samples), "failed": sum(not s.verdict.ok for s in samples),
        "outcomes": outcome_counts(traced),
    }


def run_traced(tpl3, workload: str, seed: int) -> dict:
    sweep = list(TRACE_SWEEP)
    if workload in ("classify-bigcoef", "all"):
        sweep.append("classify-bigcoef")
    tracer = tracing.Tracer()
    slices = {w: run_slice(tpl3, tracer, w, seed) for w in sweep}
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(spans_path)
    per_layer = {}
    for name, unit, source in tracing.PER_LAYER:
        value = slices[source]["layer"].get(name, 0)
        per_layer[name] = (value, unit, slices[source]["ops"], source)
    # classify-bigcoef is the source of no listed metric; report its classify
    # layers beside those of classify-mix
    extra = [(name, slices[w]["layer"].get(name, 0), unit, slices[w]["ops"], w)
             for w in slices if w not in TRACE_SWEEP
             for name, unit, source in tracing.PER_LAYER if source == "classify-mix"]
    headline = workload if workload in slices else "classify-mix"
    return {"workload": workload, "slices": slices, "per_layer": per_layer, "extra": extra,
            "overhead": slices[headline]["overhead"], "overhead_of": headline,
            "spans_file": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
            "attempted": sum(s["attempted"] for s in slices.values()),
            "failed": sum(s["failed"] for s in slices.values())}


# --- output --------------------------------------------------------------------

def metadata(args, extra: dict) -> dict:
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "per_call_limit_s": {"classify-bigcoef": workloads.BIGCOEF_LIMIT_S},
        "round_classes": {
            "classify-mix": list(inputs.MIX_CLASSES),
            "classify-bigcoef": [f"witness/{d}d" for d in inputs.BIG_DIGITS],
            "spaces": list(inputs.SPACES_ROUND),
            "cli-docs": [f"{c}/{s}" for c, s in inputs.CLI_ROUND],
        },
        **extra,
    }


def print_metric(workload: str, name: str, value, unit: str, n: int, note: str) -> None:
    print(f"metric {workload:16s} {name:44s} {value!r:>24} {unit:6s} n={n} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal busy seconds per workload; sets the number of "
                             "rounds (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tpl3 = import_tpl3()
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]

    if args.trace:
        result = run_traced(tpl3, args.workload, args.seed)
        meta = metadata(args, {"slices": {
            w: {k: v for k, v in s.items() if k != "layer"}
            for w, s in result["slices"].items()}})
        print("meta " + json.dumps(meta, sort_keys=True))
        for w, s in result["slices"].items():
            print(f"trace {w}: {s['ops']} ops traced, untraced busy {s['untraced_busy_s']:.4f} s, "
                  f"traced busy {s['traced_busy_s']:.4f} s, overhead {s['overhead']:+.1%}")
        for name, (value, unit, n, source) in result["per_layer"].items():
            print_metric(source, name, value, unit, n, "")
        for name, value, unit, n, source in result["extra"]:
            print_metric(source, name, value, unit, n, "")
        print(f"tracing overhead ({result['overhead_of']}): {result['overhead']:+.1%}; "
              f"{result['span_count']} spans in {result['spans_file']}")
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in result["per_layer"].items()}
        attempted, failed = result["attempted"], result["failed"]
        (OUT / f"result-{args.workload}-seed{args.seed}-trace1.json").write_text(
            json.dumps({"meta": meta, "per_layer": result["per_layer"]}, indent=1, default=str))
    else:
        results = [run_untraced(tpl3, w, args.seed, args.seconds) for w in names]
        for r in results:
            meta = metadata(args, {key: r[key] for key in (
                "workload", "rounds", "class_shares", "outcomes", "wall_s", "setup_runs")})
            meta["ops"] = r["attempted"]
            print("meta " + json.dumps(meta, sort_keys=True))
            for failure in r["failures"]:
                print(f"failed {r['workload']}: {failure}")
            for name, (value, unit, n, note) in r["metrics"].items():
                print_metric(r["workload"], name, value, unit, n, note)
            (OUT / f"result-{r['workload']}-seed{args.seed}-trace0.json").write_text(
                json.dumps({"meta": meta, "metrics": r["metrics"]}, indent=1))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if len(results) == 1:
            metrics = {name: {"value": results[0]["metrics"][name][0], "unit": unit}
                       for name, unit in END_TO_END}
        else:
            metrics = {f"{r['workload']}.{name}": {"value": r["metrics"][name][0], "unit": unit}
                       for r in results for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
