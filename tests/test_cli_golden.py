"""Golden CLI transcripts: the sha256 of (exit code, stdout, stderr) of each
covered ``tpl3`` call, run in-process, against ``golden/cli_digests.json``.

Every document fixture except ``malformed.json`` goes through ``check``,
``derivations`` (at the default δ and at −2/5), ``tp-space``, ``classify``,
``fingerprint`` and ``transport --matrix``, in text and in json; then
``verify-paper`` runs in both formats, for every case and for ``--case 2-c
--seed 7``.  The parser is pinned by ``tpl3 --help``, bare ``tpl3``, each
subcommand's ``--help`` and each file-taking subcommand with no arguments
(a usage error), all rendered at ``COLUMNS=80`` so that argparse wraps them
the same way on any terminal.  A call is keyed by its arguments with
fixture and matrix paths replaced by their file names, so the table does
not depend on where the checkout lives.

To rewrite the table after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from tpl3.cli import run_command

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
MATRIX = [["1", "0", "0"], ["1", "2", "0"], ["0", "-1", "1"]]
FORMATS = ("text", "json")
SUBCOMMANDS = ("check", "derivations", "tp-space", "transport", "classify",
               "verify-paper", "fingerprint")


def calls(matrix: Path) -> list[list[str]]:
    """Every covered argument list; ``matrix`` is the witness matrix file."""
    out = []
    for doc in sorted(FIXTURES.glob("*.json")):
        if doc.name == "malformed.json":
            continue
        for command in (["check"], ["derivations"], ["derivations", "--delta=-2/5"],
                        ["tp-space"], ["classify"], ["fingerprint"],
                        ["transport", "--matrix", str(matrix)]):
            for fmt in FORMATS:
                out.append([command[0], str(doc), *command[1:], "--format", fmt])
    for fmt in FORMATS:
        out.append(["verify-paper", "--format", fmt])
        out.append(["verify-paper", "--case", "2-c", "--seed", "7", "--format", fmt])
    out += [[], ["--help"]]
    out += [[command, "--help"] for command in SUBCOMMANDS]
    out += [[command] for command in SUBCOMMANDS if command != "verify-paper"]
    return out


def transcript(argv: list[str]) -> str:
    """The sha256 of the exit code, stdout and stderr of one call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_command(argv)
    data = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def digests(tmp: Path) -> dict[str, str]:
    """Call key -> transcript digest, for every covered call."""
    matrix = tmp / "matrix.json"
    matrix.write_text(json.dumps(MATRIX))
    table = {}
    for argv in calls(matrix):
        key = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)
        table[key or "(no arguments)"] = transcript(argv)
    return table


def test_cli_transcripts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text())
    actual = digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{len(changed)} transcripts changed, first: {changed[:5]}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
