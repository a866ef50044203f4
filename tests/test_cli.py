import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tpl3
from tpl3 import cli
from tpl3.cli import run_command
from conftest import FIXTURES

#: documents classified here and by CI's installed console script, kept out
#: of tests/fixtures, whose files the golden CLI table lists
DOCUMENTS = Path(__file__).parent / "documents"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_a3_passes(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "a3.json"))
    assert code == 0
    assert "fundamental-identity: PASS" in out


def test_check_counterexample_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "fi_counterexample.json"))
    assert code == 1
    assert "fundamental-identity: FAIL" in out
    assert "(2, 4, 5, 2, 3)" in out
    assert "left = e4, right = 0" in out


def test_check_joined_ideals_fails_with_witness(capsys):
    # [e1,e2,e3] = e4 and [e4,e5,e6] = e1 share no index: the check's
    # components join them through the values, and its first violation
    # crosses the two stored triples
    code, out, _ = run(capsys, "check", str(DOCUMENTS / "joined_ideals.json"))
    assert code == 1
    assert "witness (1, 2, 3, 5, 6): left = e1, right = 0" in out


def test_check_product_document(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "t1.json"))
    assert code == 0
    assert "transposed-leibniz: PASS" in out
    assert "associativity (informational): FAIL" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "t1.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "check"
    assert payload["passed"] is True
    for section in payload["data"]:
        assert set(section) == {"op", "passed", "witnesses"}


def test_classify_certificate_json(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "t1.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "classify"
    assert payload["result"] == "certificate"
    assert payload["data"]["family"] == "T1"
    assert payload["data"]["params"] == {"alpha": "2"}
    assert payload["data"]["witness"] == [["1", "0", "0"], ["0", "1", "0"],
                                          ["0", "0", "1"]]


def test_classify_not_transposed_poisson(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "not_tp.json"))
    assert code == 1
    assert "coupling identity fails" in out


def test_classify_needs_extension(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "needs_extension.json"),
                       "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["result"] == "needs-extension"
    assert payload["data"] == {"radicand": "1/2", "degree": 4}


def test_classify_unclassified(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "unclassified.json"))
    assert code == 3
    assert "unclassified" in out


#: each document of ``DOCUMENTS``, the exit code of its classification (0 a
#: certificate, 1 the coupling identity fails, 3 a diagnostic) and a text its
#: output must contain, or None; CI generates its classify rows for these
#: files from this table
CLASSIFIED_DOCUMENTS = [
    # a quotient cubic with 7-digit rational roots
    ("big_cubic", 3, None),
    # a case-2 product with radicand -1: the quarter-turn carries it onto
    # T13(gamma=-1)
    ("minus_one", 0, "T13"),
    # a case-4 product with radicand 2: neither 2 nor −2 is a square, so it
    # is decided from the radicand, a degree-2 needs-extension
    ("quadratic_extension", 3, "x**2 = 2"),
    # a case-2 product off the shape the identity block reaches (q²s ≠ −3a³)
    # whose quotient cubic is an image of h₂ of square determinant class: a
    # match onto h₂ certifies it
    ("off_shape", 0, None),
    # h₂ moved by an SL2(ℤ) map with 10-digit entries, then sheared by
    # y ↦ y + t·x into case 2: the matcher certifies it in bounded time
    ("big_h2", 0, None),
    # the shift determinant D vanishes on this case-2 product, which picks
    # the singular route onto T6
    ("singular_t6", 0, "T6"),
    # D ≠ 0 on this case-4 product, which picks the two-parameter T16: the
    # witness solve lifts its witness to u = 1 through the secondary parameter
    ("two_param_lift", 0, "T16(gamma=1, xi=4)"),
    # in-case products that match no table cubic: a cubic generating the
    # cyclic cubic field of conductor 7, and one of non-square discriminant
    ("conductor7", 3, "cubic field"),
    ("off_stratum", 3, "discriminant"),
    # the shape test on integers over mixed denominators: an in-family
    # product with e1·e2 = 5/12 and e1·e3 = 1/4 over entries in 1/3, 1/2,
    # 2/5, 3/4 and 5/7 is in no case condition set; the same with an e2
    # entry 1/6 in e1·e2, or with its e1 entry 37/84, is off the family and
    # fails the coupling identity
    ("mixed", 3, "no case condition set matches"),
    ("mixed_e2", 1, "coupling identity fails"),
    ("mixed_e1", 1, "coupling identity fails"),
    # a bracket other than [e1,e2,e3] = e1, whose check fails on the
    # fundamental identity (test_check_joined_ideals_fails_with_witness)
    ("joined_ideals", 3, "unsupported"),
]


def test_documents_are_the_classified_table():
    assert (sorted(path.name for path in DOCUMENTS.iterdir())
            == sorted(f"{name}.json" for name, _, _ in CLASSIFIED_DOCUMENTS))


@pytest.mark.parametrize("name, code, pattern", CLASSIFIED_DOCUMENTS,
                         ids=[name for name, _, _ in CLASSIFIED_DOCUMENTS])
def test_classify_documents(capsys, name, code, pattern):
    got, out, err = run(capsys, "classify", str(DOCUMENTS / f"{name}.json"))
    assert (got, err) == (code, "")
    assert pattern is None or pattern in out


def test_parse_and_usage_errors(capsys):
    code, _, err = run(capsys, "check", str(FIXTURES / "malformed.json"))
    assert code == 2 and "malformed JSON" in err
    code, _, _ = run(capsys, "bogus-subcommand")
    assert code == 2
    code, _, err = run(capsys, "check", str(FIXTURES / "missing.json"))
    assert code == 2
    code, _, err = run(capsys, "derivations", str(FIXTURES / "a3.json"),
                       "--delta", "0")
    assert code == 2 and "delta" in err


def test_negative_fractional_delta(capsys):
    # a space-separated negative fraction is read as the --delta=... form
    a3 = str(FIXTURES / "a3.json")
    for fmt in ("text", "json"):
        expected = run(capsys, "derivations", a3, "--delta=-2/5", "--format", fmt)
        assert expected[0] == 0 and "-2/5" in expected[1] and expected[2] == ""
        for argv in (("--delta", "-2/5"), ("--del", "-2/5")):
            assert run(capsys, "derivations", a3, *argv, "--format", fmt) == expected
            assert run(capsys, "derivations", "--format", fmt, *argv, a3) == expected
    # a token that is not a rational is still a usage error with one error line
    for token in ("-2/x", "-x", "1/0", "-2/0"):
        code, out, err = run(capsys, "derivations", a3, "--delta", token)
        assert code == 2 and out == "" and err.count("error:") == 1
        assert "zero denominator" in err if token.endswith("/0") else "--delta" in err


def test_derivations_command(capsys):
    code, out, _ = run(capsys, "derivations", str(FIXTURES / "a3.json"),
                       "--delta", "1/3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "derivations"
    assert payload["result"]["dim"] == 6
    assert len(payload["data"]) == 6


def test_tp_space_command(capsys):
    code, out, _ = run(capsys, "tp-space", str(FIXTURES / "a3.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["dim"] == 9
    assert len(payload["data"]["free_coordinates"]) == 9


def test_transport_command(capsys, tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]]))
    code, out, _ = run(capsys, "transport", str(FIXTURES / "a3.json"),
                       "--matrix", str(mfile), "--format", "json")
    assert code == 0
    assert json.loads(out)["bracket"] == [{"args": [1, 2, 3], "value": {"1": "1"}}]

    singular = tmp_path / "sing.json"
    singular.write_text(json.dumps([["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]))
    code, out, err = run(capsys, "transport", str(FIXTURES / "a3.json"),
                         "--matrix", str(singular))
    assert code == 2
    assert out == ""
    assert err == "error: automorphism matrices must be invertible\n"


def test_verify_paper_single_case(capsys):
    code, out, _ = run(capsys, "verify-paper", "--case", "1-a", "--seed", "7")
    assert code == 0
    assert out == "case 1-a: PASS\noverall: PASS\n"


def test_verify_paper_runs_every_case_through_verify_all_cases(capsys, monkeypatch):
    import importlib

    from tpl3 import CheckReport

    seeds = []
    monkeypatch.setattr(importlib.import_module("tpl3.paper"), "verify_all_cases",
                        lambda seed: seeds.append(seed) or {"4-d": CheckReport(())})
    assert run(capsys, "verify-paper", "--seed", "5") == (0, "case 4-d: PASS\noverall: PASS\n", "")
    # a passing run prints nothing of its seed: only the call shows the default
    assert run(capsys, "verify-paper") == (0, "case 4-d: PASS\noverall: PASS\n", "")
    assert seeds == [5, 0]


def test_verify_paper_bad_case(capsys):
    for case in ("9-z", "1-ab", "1-", "2-bc"):
        code, out, err = run(capsys, "verify-paper", "--case", case)
        assert code == 2 and out == ""
        assert err.startswith("error: bad case id") and err.count("\n") == 1


def test_deeply_nested_input_is_a_usage_error(capsys, tmp_path):
    # as the document and as the --matrix file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    a3 = str(FIXTURES / "a3.json")
    for argv, what in ((("check", str(deep)), "document"),
                       (("classify", str(deep)), "document"),
                       (("transport", a3, "--matrix", str(deep)), "matrix")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {what} is nested too deeply\n"


def test_fingerprint_command(capsys):
    code, out, _ = run(capsys, "fingerprint", str(FIXTURES / "a3.json"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == [6, 0, 3, 0, 0]


def test_exit_codes_are_deterministic(capsys):
    first = run(capsys, "classify", str(FIXTURES / "t7.json"), "--format", "json")
    second = run(capsys, "classify", str(FIXTURES / "t7.json"), "--format", "json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["check", "t1.json"], ["derivations", "a3.json"], ["tp-space", "a3.json"],
    ["transport", "t9.json", "--matrix", "MATRIX"], ["classify", "t4.json"],
    ["verify-paper", "--case", "2-c"], ["fingerprint", "t7.json"]])
def test_subcommands_return_their_result_and_run_command_prints_it(capsys, tmp_path, argv):
    # each _cmd_* returns (code, payload, lines), prints nothing and never
    # reads --format; run_command prints the lines or the payload once
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([["1", "0", "0"], ["1", "2", "0"], ["0", "-1", "1"]]))
    argv = [str(FIXTURES / a) if a.endswith(".json") else str(matrix) if a == "MATRIX" else a
            for a in argv]
    args = cli.build_parser().parse_args(argv)
    del args.format
    code, payload, lines = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert code in (0, 1, 3) and lines and all(isinstance(line, str) for line in lines)
    json_out = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    assert run(capsys, *argv, "--format", "json") == (code, json_out + "\n", "")
    assert run(capsys, *argv) == (code, "\n".join(lines) + "\n", "")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    # _cmd_classify maps each result to its exit code, JSON and text itself
    assert not hasattr(cli, "_classify_payload")

    def boom(args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli, "_cmd_classify", boom)
    code, out, err = run(capsys, "classify", str(FIXTURES / "t1.json"))
    assert code == 4
    assert out == ""
    assert err == "error: internal error: OverflowError: int too large to convert to float\n"


def test_classify_huge_radicand_is_a_diagnostic(capsys, tmp_path):
    # case 1-a with a = -10**400: the quartic radicand has 401 digits, past
    # the range of a float
    a = -10 ** 400
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({
        "dim": 3, "bracket": [{"args": [1, 2, 3], "value": {"1": "1"}}],
        "product": [{"args": [2, 2], "value": {"2": str(a)}},
                    {"args": [2, 3], "value": {"3": str(-a)}},
                    {"args": [3, 3], "value": {"2": "1"}}]}))
    code, out, err = run(capsys, "classify", str(doc), "--format", "json")
    assert code == 3 and err == ""
    payload = json.loads(out)
    assert payload["result"] == "needs-extension"
    assert payload["data"]["degree"] == 4
    assert len(payload["data"]["radicand"]) > 400


def test_exponent_rational_is_a_document_error(capsys, tmp_path):
    # nine bytes that Fraction would expand to a 2,000,001-digit integer
    doc = tmp_path / "exponent.json"
    doc.write_text(json.dumps({
        "dim": 3, "bracket": [{"args": [1, 2, 3], "value": {"1": "1e2000000"}}]}))
    for command in ("check", "classify", "fingerprint"):
        code, out, err = run(capsys, command, str(doc))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad rational '1e2000000'" in err


def test_unreadable_input_is_a_usage_error(capsys, tmp_path):
    # a directory as the document or as the --matrix file, and a missing file
    a3, folder = str(FIXTURES / "a3.json"), str(tmp_path)
    for argv in (("check", folder), ("classify", folder, "--format", "json"),
                 ("derivations", folder), ("tp-space", folder), ("fingerprint", folder),
                 ("transport", folder, "--matrix", a3),
                 ("transport", a3, "--matrix", folder),
                 ("transport", a3, "--matrix", str(tmp_path / "missing.json"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "internal error" not in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_by_sigpipe():
    # the read end is closed before the child starts, so its first write
    # always finds no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(tpl3.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tpl3.cli", "tp-space", str(FIXTURES / "a3.json")],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_dimension_above_the_cap_is_a_document_error(capsys, tmp_path):
    # a document of a few bytes may not ask for an N³ table and N⁵ tuples
    from tpl3.docio import MAX_DIM, parse_document

    assert parse_document(json.dumps({"dim": MAX_DIM, "bracket": []})).bracket.dim == MAX_DIM
    for dim in (MAX_DIM + 1, 1000, 100000):
        doc = tmp_path / f"dim{dim}.json"
        doc.write_text(json.dumps({"dim": dim, "bracket": []}))
        for command in ("check", "derivations", "tp-space", "classify", "fingerprint"):
            code, out, err = run(capsys, command, str(doc))
            assert code == 2 and out == ""
            assert err == (f"error: dim: {dim} exceeds the largest supported "
                           f"dimension {MAX_DIM}\n")
