"""Committed mutants: each one breaks the package in one place, and the tests
named with it must catch that.

Run from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py

The runner first checks that every mutant's old string occurs exactly once
in ``src`` and that the union of the named tests passes on an unmutated copy
of ``src``.  Then, for each mutant, it copies ``src`` into a temporary
directory, replaces the old string by the new one in that copy, and runs
only the mutant's tests, with the copy first on ``PYTHONPATH``.  A mutant is
killed when at least one of its tests fails.  An old string that no longer
occurs, or occurs more than once, is an error and not a skip, so a refactor
that moves mutated code must restate its mutants here.  The exit status is
0 only when every mutant is killed.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/tpl3
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


ALGEBRA = "tests/test_algebra.py::"
CLASSIFY = "tests/test_classify.py::"
DERIVATIONS = "tests/test_derivations.py::"
LINALG = "tests/test_linalg.py::"
MORPHISMS = "tests/test_morphisms.py::"
CLI = "tests/test_cli.py::"
CLASSIFY_DIGEST = "tests/test_classify_digest.py::test_classify_results_match_golden_digest"
SPACES_DIGEST = "tests/test_spaces_digest.py::test_solved_spaces_match_golden_digest"
CLI_DIGESTS = "tests/test_cli_golden.py::test_cli_transcripts_match_golden_digests"

#: the tests of each mutant run in the order given, up to the first failure,
#: so the fastest that kills it comes first
MUTANTS = [
    Mutant("case sets 1-2 without a != 0", "families.py",
           "w == -a and a != 0 and s != 0", "w == -a and s != 0",
           (CLASSIFY + "test_case_condition_sets_have_a_nonzero_minor",)),
    Mutant("shift determinant without its q term", "classify.py",
           "a * (h * r - a * k) + q * (h * s - r * k)", "a * (h * r - a * k)",
           (CLASSIFY + "test_shift_determinant_matches_the_residual_oracle",
            CLASSIFY_DIGEST)),
    Mutant("validate without the automorphism check", "classify.py",
           "        if not a3_automorphism_check(self.witness):\n"
           "            return False\n"
           "        return _homomorphism(",
           "        return _homomorphism(",
           (CLASSIFY + "test_integer_validate_matches_the_reference",)),
    Mutant("Cramer numerator of x with a flipped sign", "classify.py",
           "Fraction(a * r2 - r * r1, out)", "Fraction(a * r2 + r * r1, out)",
           (CLASSIFY + "test_solve_witness_matches_two_attempt_oracle", CLASSIFY_DIGEST)),
    Mutant("witness solve without the zero-minor guard", "classify.py",
           "    if not minor:\n"
           "        raise ValueError(\"the witness solve needs a·s − r² ≠ 0, \"\n"
           "                         \"as every case condition set has\")\n",
           "",
           (CLASSIFY + "test_solve_witness_matches_two_attempt_oracle",
            CLASSIFY + "test_solve_witness_matches_the_dense_oracle_on_witness_systems")),
    Mutant("1/3 shortcut row with +1 at the last column", "derivations.py",
           "{c: 1, last: -1}", "{c: 1, last: +1}",
           (DERIVATIONS + "test_dense_reduced_rows_match_full_elimination",
            DERIVATIONS + "test_full_rank_reduced_rows_match_full_elimination",
            SPACES_DIGEST)),
    Mutant("1/3 shortcut taken at any delta", "derivations.py",
           "if rank == last and c % (n + 1) == 0 else {c: 1}\n"
           "                              for c in range(rank)], tuple(range(rank)))",
           "if c % (n + 1) == 0 else {c: 1}\n"
           "                              for c in range(last)], tuple(range(last)))",
           (DERIVATIONS + "test_dense_reduced_rows_match_full_elimination",
            DERIVATIONS + "test_reduced_rows_are_normal_integer_rows")),
    Mutant("target n² at δ = 1/3", "derivations.py",
           "target = n * n - (q.delta == ONE_THIRD) - len(killed)",
           "target = n * n - len(killed)",
           (DERIVATIONS + "test_product_space_eliminates_reduced_derivation_rows[dense4]",)),
    Mutant("a mod-p shortfall taken as proof", "derivations.py",
           "_rank_mod_p(rows, n * n, target) == target",
           "_rank_mod_p(rows, n * n, target) >= target - 1",
           (DERIVATIONS + "test_rank_deficient_bracket_in_the_gate_runs_the_exact_pass",
            SPACES_DIGEST)),
    Mutant("mod-p pass without reduction against the earlier pivot rows", "linalg.py",
           "        for shift, w in found:\n", "        for shift, w in found[:0]:\n",
           (DERIVATIONS + "test_rank_deficient_bracket_in_the_gate_runs_the_exact_pass",
            SPACES_DIGEST)),
    Mutant("mod-p multiplier read without % p", "linalg.py",
           "f = (x >> shift & 0xFFFF_FFFF_FFFF_FFFF) % p", "f = x >> shift & 0xFFFF_FFFF_FFFF_FFFF",
           (LINALG + "test_packed_rank_mod_p_matches_the_dense_pass",
            SPACES_DIGEST)),
    Mutant("kernel-entry dict keyed by the numerator alone", "linalg.py",
           "key = -v, a\n", "key = -v\n",
           (LINALG + "test_kernel_annihilates_and_rank_nullity", SPACES_DIGEST)),
    Mutant("shared unit vector for a single entry other than 1", "derivations.py",
           "if len(terms) == 1 and terms[0][1] == 1:", "if len(terms) == 1:",
           (DERIVATIONS + "test_solved_space_records_match_public_constructors",
            SPACES_DIGEST)),
    Mutant("presolve without its column drop", "derivations.py",
           "rows = [{c: e for c, e in row.items() if c not in killed}\n"
           "                    for row in rows if len(row) > 1]",
           "rows = [row for row in rows if len(row) > 1]",
           (DERIVATIONS + "test_presolved_reduced_rows_match_full_elimination",
            DERIVATIONS + "test_reduced_rows_are_normal_integer_rows",
            SPACES_DIGEST)),
    Mutant("fundamental identity ignores z's partners", "algebra.py",
           "partners[x] | partners[y] | partners[z]", "partners[x] | partners[y]",
           (SPACES_DIGEST, ALGEBRA + "test_fundamental_identity_matches_bracket_eval_reference")),
    Mutant("fundamental identity components without the value's support", "algebra.py",
           "for t in (j, k, *(s for s, _ in table[i][j][k])):", "for t in (j, k):",
           (CLI + "test_check_joined_ideals_fails_with_witness",
            ALGEBRA + "test_fundamental_identity_matches_bracket_eval_reference")),
    Mutant("fundamental identity pair skip widened to one shared index", "algebra.py",
           "if (u == x or u == y) and (v == y or v == z):",
           "if u in (x, y, z) or v in (x, y, z):",
           (SPACES_DIGEST, ALGEBRA + "test_fundamental_identity_matches_bracket_eval_reference")),
    Mutant("derivation rows ignore the live pair (i, k)", "derivations.py",
           "if (j, k) not in partners and (i, k) not in partners and (i, j) not in partners:",
           "if (j, k) not in partners and (i, j) not in partners:",
           (DERIVATIONS + "test_product_space_contains_matches_dense_system",
            DERIVATIONS + "test_delta_derivations_match_bracket_eval_system_on_rational_brackets")),
    Mutant("coupling check divided by D_bracket only", "algebra.py",
           "    den = den_b * den_p\n", "    den = den_b\n",
           (CLASSIFY_DIGEST, ALGEBRA + "test_transposed_leibniz_matches_eval_reference")),
    Mutant("associativity check divided by D, not D²", "algebra.py",
           "den, prod = _product_table(p)\n    den2 = den * den\n",
           "den, prod = _product_table(p)\n    den2 = den\n",
           (CLI_DIGESTS, ALGEBRA + "test_commutative_associative_matches_eval_reference")),
    Mutant("cubic matcher without its sign rule", "classify.py",
           "sign = -1 if m22 < 0 or m22 == 0 and m21 > 0 else 1", "sign = 1",
           (CLASSIFY + "test_cubic_matcher_blocks_move_the_cubic",
            CLASSIFY + "test_mobius_block_matches_reference",
            CLASSIFY_DIGEST)),
    Mutant("cubic matcher signs the root, not the numerators", "classify.py",
           "(sign * m22, -sign * m21, -sign * m12, sign * m11, root)",
           "(m22, -m21, -m12, m11, sign * root)",
           (CLASSIFY + "test_block_move_matches_the_transport_oracle",)),
    Mutant("block move by B in place of adj B", "classify.py",
           "x, y = (b22, -b12), (-b21, b11)", "x, y = (b11, b12), (b21, b22)",
           (CLASSIFY + "test_block_move_matches_the_transport_oracle",)),
    Mutant("one entry of the 2-c witness row changed", "families.py",
           '"2-c": [[1, 0, 0], [-2, -2, -1], [3, 3, 1]]',
           '"2-c": [[1, 0, 0], [-1, -2, -1], [3, 3, 1]]',
           (CLASSIFY + "test_verify_paper_case_single_and_seeded",
            "tests/test_morphisms.py::test_eleven_residuals_identity_and_fixed_points",
            CLI_DIGESTS)),
    Mutant("table forms with the primary unit for both forms", "families.py",
           "for unit in ((Fraction(1), _Z), (_Z, Fraction(1)))]",
           "for unit in ((Fraction(1), _Z), (Fraction(1), _Z))]",
           (CLASSIFY + "test_table_forms_give_the_canonical_pair_rows",
            "tests/test_families.py::test_instantiate_t16",
            CLASSIFY_DIGEST)),
    # transport_bracket reads the same two supports, so each old string
    # takes in the product-table line only transport_product has after it
    Mutant("transport along the inverse", "morphisms.py",
           "den_p, prod = _product_table(p)\n"
           "    den_pre, pre = _supports(invert(m.map))\n"
           "    den_map, image = _supports(m.map)\n",
           "den_p, prod = _product_table(p)\n"
           "    den_pre, pre = _supports(m.map)\n"
           "    den_map, image = _supports(invert(m.map))\n",
           (MORPHISMS + "test_transport_product_scaling_example",
            MORPHISMS + "test_transport_matches_evaluator_reference")),
    Mutant("transport by the transposed map", "morphisms.py",
           "den_p, prod = _product_table(p)\n"
           "    den_pre, pre = _supports(invert(m.map))\n"
           "    den_map, image = _supports(m.map)\n",
           "den_p, prod = _product_table(p)\n"
           "    den_pre, pre = _supports(invert(m.map).transpose())\n"
           "    den_map, image = _supports(m.map.transpose())\n",
           (MORPHISMS + "test_transport_matches_evaluator_reference",)),
    Mutant("transport drops the diagonal pairs", "morphisms.py",
           "        moved.append(_push(value, image))\n",
           "        moved.append(_push(value, image) if i != j else [0] * n)\n",
           (MORPHISMS + "test_transport_product_scaling_example",
            MORPHISMS + "test_transport_matches_evaluator_reference")),
    Mutant("validate skips pair (0, 0)", "morphisms.py",
           "    for i, j in pairs:\n", "    for i, j in pairs[1:]:\n",
           (CLASSIFY + "test_integer_validate_matches_the_reference",)),
    Mutant("validate drops den on the left", "morphisms.py",
           "left_scale = den_map * den", "left_scale = den_map",
           (CLASSIFY + "test_integer_validate_matches_the_reference",)),
    Mutant("validate compares only nonzero sides", "morphisms.py",
           "        if left != right:\n            return False\n",
           "        if any(left) and any(right) and left != right:\n            return False\n",
           (CLASSIFY + "test_integer_validate_matches_the_reference",)),
    Mutant("table rows with a wrong secondary scale", "families.py",
           "x, y = pn * sd, sn * pd", "x, y = pn * sd, sn * sd",
           (CLASSIFY_DIGEST, CLASSIFY + "test_table_forms_give_the_canonical_pair_rows")),
    Mutant("witness solve with scale for det * scale", "classify.py",
           "un, ud, zn, zd = 1, 1, det * scale - drift, turn",
           "un, ud, zn, zd = 1, 1, scale - drift, turn",
           (CLASSIFY + "test_solve_witness_matches_two_attempt_oracle",)),
    Mutant("witness solve drops ud in the row numerators", "classify.py",
           "((v * zd + zn * w) * ud - e * un * scale * zd",
           "((v * zd + zn * w) - e * un * scale * zd",
           (CLASSIFY + "test_solve_witness_matches_two_attempt_oracle",)),
    Mutant("presolve without its merged unit rows", "derivations.py",
           "            by_pivot.update((c, {c: 1}) for c in killed)\n", "",
           (DERIVATIONS + "test_presolved_reduced_rows_match_full_elimination",)),
    Mutant("product-space pairs left unsorted", "derivations.py",
           "for idx in sorted(table):", "for idx in table:",
           (DERIVATIONS + "test_solved_space_records_match_public_constructors",)),
    Mutant("row generator with the wrong slot sign", "derivations.py",
           "(j * n, -p, (i, k))", "(j * n, p, (i, k))",
           (SPACES_DIGEST,)),
    Mutant("integer pair rows keep their zero rows", "algebra.py",
           "for (i, j), row in zip(_basis_pairs(n), rows)\n"
           "                                        if any(row)})",
           "for (i, j), row in zip(_basis_pairs(n), rows)})",
           ("tests/test_families.py::test_instantiate_t1",
            "tests/test_package.py::test_integer_pair_rows_make_the_public_product")),
    Mutant("classify exits 0 on needs-extension", "cli.py",
           'code, kind = 3, "needs-extension"', 'code, kind = 0, "needs-extension"',
           (CLI + "test_classify_needs_extension",)),
    Mutant("verify-paper --case runs every case", "cli.py",
           "        reports = {case: verify_paper_case(case, seed=args.seed)}\n"
           "    else:\n"
           "        reports = verify_all_cases(seed=args.seed)\n",
           "    reports = verify_all_cases(seed=args.seed)\n",
           (CLI + "test_verify_paper_single_case",)),
    Mutant("the printer prints the text lines for --format json", "cli.py",
           'if args.format == "text":', 'if args.format in ("text", "json"):',
           (CLI_DIGESTS,)),
    Mutant("verify-paper's --seed defaults to 1", "cli.py",
           '"--seed": {"type": int, "default": 0,', '"--seed": {"type": int, "default": 1,',
           (CLI + "test_verify_paper_runs_every_case_through_verify_all_cases",)),
    Mutant("transport's --matrix is optional", "cli.py",
           '"--matrix": {"required": True,', '"--matrix": {"required": False,',
           (CLI_DIGESTS,)),
    Mutant("the subcommand choices without their COMMAND metavar", "cli.py",
           'required=True, metavar="COMMAND")', "required=True)",
           (CLI_DIGESTS,)),
]


class StaleMutant(Exception):
    """A mutant's old string does not occur exactly once in its file."""


def copy_src(into: Path) -> Path:
    target = into / "src"
    shutil.copytree(SRC, target, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return target


def mutated(mutant: Mutant, src: Path) -> str:
    """The text of the mutant's file under ``src`` with its old string
    replaced; raises ``StaleMutant`` unless that string occurs once."""
    text = (src / "tpl3" / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise StaleMutant(f"{mutant.name}: old string occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run_tests(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run ``tests`` from the repository root, up to the first failure, with
    ``src`` first on ``PYTHONPATH`` and no bytecode written."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--tb=line", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def main() -> int:
    errors = []
    for mutant in MUTANTS:
        if not mutant.tests:
            errors.append(f"{mutant.name}: names no test")
        try:
            mutated(mutant, SRC)
        except StaleMutant as error:
            errors.append(str(error))
    if errors:
        print("\n".join(f"error: {e}" for e in errors))
        return 1
    with tempfile.TemporaryDirectory(prefix="tpl3-mutants-") as scratch:
        pristine = copy_src(Path(scratch) / "pristine")
        union = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        baseline = run_tests(pristine, union)
        if baseline.returncode != 0:
            print("error: the named tests fail on the unmutated copy\n"
                  f"{baseline.stdout[-2000:]}{baseline.stderr[-2000:]}")
            return 1
        failed = 0
        for index, mutant in enumerate(MUTANTS):
            src = copy_src(Path(scratch) / f"m{index}")
            (src / "tpl3" / mutant.file).write_text(mutated(mutant, src), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = run_tests(src, mutant.tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(
                    result.returncode, f"error (pytest exit {result.returncode})")
            except subprocess.TimeoutExpired:
                result, verdict = None, "error (timed out)"
            print(f"{verdict:>24}  {time.perf_counter() - start:6.1f} s  {mutant.name}",
                  flush=True)
            if verdict != "killed":
                failed += 1
                if result is not None:
                    print(result.stdout[-2000:], result.stderr[-2000:])
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
