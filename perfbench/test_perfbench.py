"""Tests of the benchmark itself: the checker, the generators and the
metric lists.  Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
from inputs import Label  # noqa: E402

F = Fraction
WITNESSED = Label("witness", True, True)


def tpl3_certificate():
    """A real certificate from tpl3 for a witness-shape image of T2."""
    import tpl3
    from workloads import tpl3_product

    canonical = exact.family_table("T2", {"alpha": F(2), "theta": F(-3, 2)})
    p = exact.push_product(canonical, inputs.witness_shape(F(3), F(1, 2), F(-2), F(2)))
    result = tpl3.classify(tpl3.a3_bracket(), tpl3_product(tpl3, p))
    assert type(result).__name__ == "Certificate"
    return p, verdicts.record_from_result(result)


def test_checker_accepts_a_true_certificate():
    p, record = tpl3_certificate()
    verdict = verdicts.check_classify(p, WITNESSED, record)
    assert verdict.ok and verdict.certified


@pytest.mark.parametrize("row,col", [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)])
def test_checker_flags_a_certificate_with_one_witness_entry_altered(row, col):
    p, record = tpl3_certificate()
    witness = [list(r) for r in record["witness"]]
    witness[row][col] += 1
    altered = dict(record, witness=tuple(tuple(r) for r in witness))
    verdict = verdicts.check_classify(p, WITNESSED, altered)
    assert not verdict.ok and not verdict.certified


def test_checker_flags_a_needs_extension_with_an_exact_fourth_power():
    p = exact.family_table("T1", {"alpha": F(1)})
    for radicand in (F((10**20 + 7) ** 4), F(1, (10**20 + 7) ** 4), F(16, 81)):
        record = {"kind": "needs_extension", "radicand": radicand, "degree": 4}
        assert not verdicts.check_classify(p, WITNESSED, record).ok
    for radicand in (F((10**20 + 7) ** 4 + 1), F(2), F(-16), F(4, 9)):
        record = {"kind": "needs_extension", "radicand": radicand, "degree": 4}
        assert verdicts.check_classify(p, WITNESSED, record).ok


def test_checker_matches_result_kind_to_construction():
    p = exact.family_table("T1", {"alpha": F(1)})
    outside = Label("outside", False, False)
    assert not verdicts.check_classify(p, WITNESSED, {"kind": "not_tp"}).ok
    assert not verdicts.check_classify(p, outside, {"kind": "unclassified"}).ok
    assert verdicts.check_classify(p, outside, {"kind": "not_tp"}).ok
    unclassified = verdicts.check_classify(p, WITNESSED, {"kind": "unclassified"})
    assert unclassified.ok and not unclassified.certified


def test_int_root_is_exact_for_big_integers():
    rng = random.Random(0)
    for degree in (2, 3, 4, 5):
        for _ in range(50):
            r = rng.randrange(10 ** rng.randint(1, 40))
            assert exact.int_root(r ** degree, degree) == r
            if r > 1:
                assert exact.int_root(r ** degree + 1, degree) is None


def test_outside_products_fail_the_coupling_identity():
    rng = random.Random(3)
    for _ in range(20):
        round_ = inputs.classify_mix_round(rng)
        for item in round_:
            violations = exact.coupling_violations(exact.A3_BRACKET, item.product, 3)
            assert bool(violations) == (not item.label.in_family)


def canonical_bytes(items) -> bytes:
    """A byte encoding of generated inputs, for the reproducibility test."""
    def enc(x):
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, dict):
            return [[enc(k), enc(v)] for k, v in x.items()]
        if isinstance(x, (list, tuple)):
            return [enc(v) for v in x]
        if isinstance(x, bytes):
            return x.decode("utf-8")
        if hasattr(x, "__dataclass_fields__"):
            return {name: enc(getattr(x, name)) for name in x.__dataclass_fields__}
        return x
    return json.dumps(enc(items), separators=(",", ":")).encode("utf-8")


def stream_bytes(seed: int) -> bytes:
    rng = inputs.make_rng(seed, "classify-mix")
    mix = [inputs.classify_mix_round(rng) for _ in range(30)]
    rng = inputs.make_rng(seed, "classify-bigcoef")
    big = inputs.classify_bigcoef_round(rng)
    rng = inputs.make_rng(seed, "spaces")
    spaces = [inputs.spaces_round(rng) for _ in range(2)]
    cli = inputs.CliStream(inputs.make_rng(seed, "cli-docs"), HERE.parent / "tests" / "fixtures")
    docs = [cli.round() for _ in range(3)]
    return canonical_bytes([mix, big, spaces, docs])


def test_same_seed_gives_byte_identical_inputs():
    first = stream_bytes(11)
    assert first == stream_bytes(11)
    assert first != stream_bytes(12)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
