"""The four workloads, each a closed loop with one caller and no threads.

A workload runs a fixed number of whole rounds (one input of each class,
see ``inputs``): ``ROUNDS_PER_SECOND`` rounds per requested second, measured
with the tpl3 this benchmark was written against (Python 3.11, 2 vCPU), so a run
measures about that long there.  Fixed work keeps the class shares, the
sample count behind each percentile and the inputs identical for every
version of the program.  Inputs are generated and outputs checked between
timed calls, never inside them.

Why these workloads:

* ``classify-mix``: ``classify`` on small-coefficient products of five
  classes.  It loads classify/families/morphisms and the small linalg
  solves and leaves derivations idle; it covers the in-case route that
  certifies and the early exits (including the one that leaves orbit
  images Unclassified today).
* ``classify-bigcoef``: the same witness-shape images with witness entries
  of 2 to 20 digits, under a per-call time limit.  The root kernels
  (``linalg.rational_root``, the cubic root search) dominate; at 18+ digits
  today's float roots give false NeedsExtension results and the divisor
  search runs away.
* ``spaces``: the fundamental-identity check, the 1/3-derivation space and
  the compatible-product space of 5- and 6-dimensional brackets.
  Structured direct sums give sparse, redundant systems; dense random
  brackets give small full-rank systems whose fractions grow.  derivations
  and the large ``rref`` do almost all the work; classify does none.
* ``cli-docs``: one ``python -m tpl3.cli`` process per document.
  Interpreter start and ``import tpl3`` dominate; this is the only workload
  that loads docio/cli and start-up.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact
import inputs
import verdicts
from verdicts import Verdict

WORKLOADS = ("classify-mix", "classify-bigcoef", "spaces", "cli-docs")

#: per-call limit on classify-bigcoef.  Every call that completes today
#: takes under 10 ms; the runaway divisor searches take seconds to minutes.
BIGCOEF_LIMIT_S = 0.25

WARMUP_ROUNDS = {"classify-mix": 20, "classify-bigcoef": 0, "spaces": 0, "cli-docs": 1}
ROUNDS_PER_SECOND = {"classify-mix": 165, "classify-bigcoef": 1.9, "spaces": 0.3,
                     "cli-docs": 0.8}
#: rounds per block; throughput is the median over blocks, which keeps a
#: burst of load from other processes out of the figure
BLOCK_ROUNDS = {"classify-mix": 40, "classify-bigcoef": 1, "spaces": 1, "cli-docs": 1}
#: reference timings per block boundary (see ``Reference``): more where a
#: run has few blocks
REFERENCE_REPEATS = {"classify-mix": 1, "classify-bigcoef": 1, "spaces": 9, "cli-docs": 3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


@dataclass
class Sample:
    cls: str
    seconds: float
    verdict: Verdict
    witnessed: bool = False  # the input was built with a rational witness
    round: int = 0
    slowdown: float = 1.0  # the machine's slowdown while the sample's block ran


class CallTimeout(Exception):
    """A call ran past the per-call limit."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def tpl3_product(tpl3, p: dict):
    return tpl3.CommProduct(3, {k: tpl3.Vector(v) for k, v in p.items()})


def tpl3_bracket(tpl3, b: dict, n: int):
    return tpl3.TriBracket(n, {k: tpl3.Vector(v) for k, v in b.items()})


# --- per-workload streams and single operations ---------------------------------

class ClassifyRunner:
    def __init__(self, tpl3, workload: str):
        self.tpl3 = tpl3
        self.a3 = tpl3.a3_bracket()
        self.limit = BIGCOEF_LIMIT_S if workload == "classify-bigcoef" else None
        self.make_round = (inputs.classify_bigcoef_round if workload == "classify-bigcoef"
                           else inputs.classify_mix_round)

    def prepare(self, item):
        return tpl3_product(self.tpl3, item.product)

    def call(self, obj):
        if self.limit is None:
            return self.tpl3.classify(self.a3, obj)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        try:
            return self.tpl3.classify(self.a3, obj)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def check(self, item, result) -> Verdict:
        return verdicts.check_classify(item.product, item.label,
                                       verdicts.record_from_result(result))

    def cls(self, item) -> str:
        if self.limit is not None:  # classify-bigcoef: the witness's digit count
            return item.label.source.split("/")[1]
        return item.label.kind


class SpacesRunner:
    def __init__(self, tpl3):
        self.tpl3 = tpl3
        self.make_round = inputs.spaces_round

    def prepare(self, item):
        return tpl3_bracket(self.tpl3, item.bracket, item.dim)

    def call(self, b):
        t = self.tpl3
        return (t.check_fundamental_identity(b),
                t.delta_derivations(t.DerivationQuery(b, Fraction(1, 3))),
                t.tp_product_space(b))

    def check(self, item, result) -> Verdict:
        fi, deriv, space = result
        n = item.dim
        reported = {(v.witness, tuple(v.left), tuple(v.right)) for v in fi.violations}
        basis = tuple(tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
                      for m in deriv.basis)
        products = [{k: tuple(v) for k, v in p.table.items()} for p in space.basis]
        return verdicts.check_spaces(item.bracket, n, item.is_3lie, reported, basis,
                                     (products, space.description))

    @staticmethod
    def cls(item) -> str:
        return item.kind


#: runs the CLI like ``python -m tpl3.cli`` and reports the child's peak
#: resident set (VmHWM) on stderr.  ru_maxrss cannot give it: a child
#: inherits the high-water mark of the process that spawned it.
RSS_PROBE = """import atexit, runpy, sys
def report():
    with open('/proc/self/status') as status:
        sys.stderr.write(next(line for line in status if line.startswith('VmHWM:')))
atexit.register(report)
sys.argv[0] = 'tpl3'
runpy.run_module('tpl3.cli', run_name='__main__', alter_sys=True)
"""


def vm_hwm_mb(text: str) -> float:
    """Peak resident set in MB from a /proc status ``VmHWM:`` line."""
    line = next(line for line in text.splitlines() if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def self_peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        return vm_hwm_mb(status.read())


class CliRunner:
    """One child process per call; ``in_process`` runs ``run_command``
    instead, for the traced run."""

    def __init__(self, root: Path, work: Path, in_process=False):
        self.root = root
        self.work = work
        self.cli = importlib.import_module("tpl3.cli") if in_process else None
        self.stream = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.counter = 0

    def bind(self, rng):
        self.stream = inputs.CliStream(rng, self.root / "tests" / "fixtures")

    def make_round(self, rng):
        return self.stream.round()

    def prepare(self, item):
        self.counter += 1
        doc = self.work / f"doc{self.counter % 64}.json"
        doc.write_bytes(item.document)
        argv = [item.command, "--format", "json", str(doc)]
        if item.matrix is not None:
            mat = self.work / f"mat{self.counter % 64}.json"
            mat.write_bytes(inputs.matrix_bytes(item.matrix))
            argv += ["--matrix", str(mat)]
        return argv

    def call(self, argv):
        if self.cli is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_command(argv)
            return code, out.getvalue().encode("utf-8")
        proc = subprocess.run([sys.executable, "-m", "tpl3.cli", *argv], cwd=self.root,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=60)
        return proc.returncode, proc.stdout

    def check(self, item, result) -> Verdict:
        code, stdout = result
        return verdicts.check_cli(item, code, stdout)

    def child_peak_rss_mb(self, items) -> float:
        """The largest peak resident set of CLI children running ``items``."""
        peak = 0.0
        for item in items:
            proc = subprocess.run([sys.executable, "-c", RSS_PROBE, *self.prepare(item)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  timeout=60)
            peak = max(peak, vm_hwm_mb(proc.stderr.decode()))
        return peak

    @staticmethod
    def cls(item) -> str:
        return item.command


def make_runner(tpl3, workload: str, root: Path, work: Path, in_process=False):
    if workload == "spaces":
        return SpacesRunner(tpl3)
    if workload == "cli-docs":
        return CliRunner(root, work, in_process)
    return ClassifyRunner(tpl3, workload)


# --- the loop -------------------------------------------------------------------

def run_op(runner, item) -> Sample:
    """Time one call and check its output; errors and timeouts are failed
    operations, not crashes of the benchmark."""
    obj = runner.prepare(item)
    cls = runner.cls(item)
    witnessed = getattr(getattr(item, "label", None), "witnessed", False)
    clock = time.perf_counter
    t0 = clock()
    try:
        result = runner.call(obj)
    except CallTimeout:
        return Sample(cls, clock() - t0, Verdict(False, "timeout"), witnessed=witnessed)
    except Exception as exc:  # a raising call is a failed operation
        elapsed = clock() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        reason = f"{type(exc).__name__}: {exc} at {Path(where.filename).name}:{where.lineno}"
        return Sample(cls, elapsed, Verdict(False, "error", reason), witnessed=witnessed)
    elapsed = clock() - t0
    return Sample(cls, elapsed, runner.check(item, result), witnessed)


class Reference:
    """A fixed piece of exact arithmetic, done by the benchmark's own code,
    that measures how fast the machine runs right now.

    On a shared machine the speed of pure-Python code drifts by 20% and more
    over seconds to minutes.  Timing this reference beside each block of a
    workload gives the block's slowdown against the nominal speed, and the
    end-to-end times are reported divided by it: over ten seeds this took
    the spread of classify-mix throughput from 26% to 2%.  A slowdown is the
    median of ``repeats`` timings, since a workload with few blocks cannot
    average out a noisy one.  Nothing here calls tpl3, so a change to the
    program cannot move the reference.
    """

    #: seconds the reference takes at the nominal speed (Python 3.11, 2 vCPU)
    NOMINAL_S = 0.0217

    def __init__(self, repeats: int):
        rng = inputs.make_rng(0, "reference")
        self.products = [item.product for _ in range(20)
                         for item in inputs.classify_mix_round(rng)]
        self.repeats = repeats

    def slowdown(self) -> float:
        gc.collect()  # start from the same heap state whatever ran before
        times = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            for p in self.products:
                exact.coupling_violations(exact.A3_BRACKET, p, 3)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / self.NOMINAL_S


def run_rounds(runner, rng, rounds: int, block_rounds: int = 1,
               reference: Reference | None = None) -> list:
    """Time and check ``rounds`` whole rounds of the stream ``rng`` draws;
    with a reference, time it before the first block and after every block
    of ``block_rounds`` rounds, and give each sample the mean slowdown
    measured on either side of its block."""
    if isinstance(runner, CliRunner):
        runner.bind(rng)
    samples: list[Sample] = []
    block_start = 0
    before = reference.slowdown() if reference is not None else 1.0
    for index in range(rounds):
        for item in runner.make_round(rng):
            sample = run_op(runner, item)
            sample.round = index
            samples.append(sample)
        if reference is not None and ((index + 1) % block_rounds == 0 or index + 1 == rounds):
            after = reference.slowdown()
            for sample in samples[block_start:]:
                sample.slowdown = (before + after) / 2
            before, block_start = after, len(samples)
    return samples


def warm_up(runner, workload: str, seed: int) -> None:
    rounds = WARMUP_ROUNDS[workload]
    if rounds:
        run_rounds(runner, inputs.make_rng(seed, workload + ":warm-up"), rounds)
    elif workload == "spaces":
        t = runner.tpl3
        t.tp_product_space(t.a3_bracket())
