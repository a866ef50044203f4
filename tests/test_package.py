"""The lazy package: what ``import tpl3`` and each subcommand load, and the
public names, which are those the package re-exported when it imported
every submodule eagerly less the dense references now in ``oracles``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tpl3
from conftest import FIXTURES

SRC = Path(tpl3.__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # linalg
    "DimensionMismatch", "Infeasible", "Matrix", "Singular", "Vector", "fmt_rat",
    "invert", "mat_mul", "parse_rat", "rank", "rational_root", "solve_affine", "vec_mat",
    # algebra
    "CheckReport", "CommProduct", "FamilyCoordinates", "ShapeMismatch", "TriBracket",
    "Violation", "a3_bracket", "bracket_eval", "check_commutative_associative",
    "check_fundamental_identity", "check_transposed_leibniz", "family_coordinates",
    "remark_associativity_residuals",
    # derivations
    "DerivationQuery", "DerivationSpace", "ProductSpace", "delta_derivations",
    "tp_product_space",
    # morphisms
    "AutoMatrix", "NotAutomorphism", "a3_automorphism_check",
    "eleven_equation_residuals", "is_bracket_automorphism", "transport_bracket",
    "transport_product",
    # families
    "ALL_CASES", "CANONICAL_AUTOMORPHISM", "CASE_FAMILY", "FAMILY_IDS", "FAMILY_PARAMS",
    "CaseId", "FamilyInstance", "detect_case", "instantiate_family",
    # classify
    "Certificate", "NeedsExtension", "NotTransposedPoisson", "Unclassified",
    "Unsupported", "classify", "draw_family_params", "fingerprint", "normalize",
    "verify_all_cases", "verify_paper_case",
    # docio
    "AlgebraDocument", "DocumentError", "matrix_payload", "parse_document",
    "parse_matrix", "serialize_document",
}


def fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports tpl3 from
    this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED_AFTER_COMMAND = """
import contextlib, io, json, sys
from tpl3 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run_command(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tpl3."))]))
"""


def loaded_after(*argv: str) -> tuple[int, set[str]]:
    code, modules = json.loads(fresh_python(LOADED_AFTER_COMMAND, *argv))
    return code, {m.removeprefix("tpl3.") for m in modules}


def test_import_loads_no_submodule():
    out = fresh_python("import sys, tpl3\n"
                       "print(sorted(m for m in sys.modules if m.startswith('tpl3.')))")
    assert out == "[]\n"


def test_subcommands_load_only_what_they_run(tmp_path):
    code, loaded = loaded_after("check", str(FIXTURES / "a3.json"))
    assert code == 0 and "algebra" in loaded
    assert not loaded & {"classify", "families", "derivations"}
    matrix = tmp_path / "m.json"
    matrix.write_text('[["1","0","0"],["1","2","0"],["0","-1","1"]]')
    code, loaded = loaded_after("transport", str(FIXTURES / "t9.json"),
                                "--matrix", str(matrix))
    assert code == 0 and "morphisms" in loaded
    assert not loaded & {"classify", "derivations"}


def test_public_names_unchanged():
    assert {name for name in dir(tpl3) if not name.startswith("_")} == PUBLIC_NAMES
    namespace: dict = {}
    exec("from tpl3 import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_submodule_imported_before_package_names():
    # ``import tpl3.classify`` binds the submodule on the package before any
    # name is read; ``tpl3.classify`` must still be the function
    out = fresh_python(
        "import tpl3.classify\n"
        "import tpl3\n"
        "p = tpl3.instantiate_family(tpl3.FamilyInstance.make('T1', alpha=2))\n"
        "print(type(tpl3.classify(tpl3.a3_bracket(), p)).__name__)")
    assert out == "Certificate\n"
