import json

from tpl3 import cli
from tpl3.cli import run_command
from conftest import FIXTURES


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
    assert "case 1-a: PASS" in out


def test_verify_paper_bad_case(capsys):
    code, _, err = run(capsys, "verify-paper", "--case", "9-z")
    assert code == 2


def test_fingerprint_command(capsys):
    code, out, _ = run(capsys, "fingerprint", str(FIXTURES / "a3.json"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == [6, 0, 3, 0, 0]


def test_exit_codes_are_deterministic(capsys):
    first = run(capsys, "classify", str(FIXTURES / "t7.json"), "--format", "json")
    second = run(capsys, "classify", str(FIXTURES / "t7.json"), "--format", "json")
    assert first == second


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
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
