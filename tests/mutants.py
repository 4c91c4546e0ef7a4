"""Planted bugs that the test suite must catch, as a checked list.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

Each mutant is one exact text replacement in one file of src/hypersat,
and the ids of the tests that must fail under it.  The script first runs all
the listed tests on an unmutated copy of the tree, where each must pass.
Then, for each mutant, it copies the tree to a temporary directory,
applies the replacement there and runs only that mutant's tests.  It exits
1 if a mutant's text is not found exactly once, so a refactor that moves
the code must plant the bug again in the new code, or if a listed test
passes under its mutant (or runs past the time limit), so a test that no
longer catches its bug is seen.  This is mutation analysis (DeMillo,
Lipton & Sayward, IEEE Computer 1978) with the mutants written by hand.

A test id is a pytest node id; one without a [parameter] stands for all
of its parameters, and it is caught when any of them fails.
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

ROOT = Path(__file__).resolve().parent.parent
# What a copy of the tree holds: the tests read perfbench's pool and its
# tracer's names as well as the sources.
COPIED = ("src", "tests", "perfbench")
TIME_LIMIT = 180  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hypersat
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids under tests


MUTANTS = [
    # the formula tables and the negation normal form
    Mutant(
        "nnf-negated-until-kept",
        "syntax.py",
        "key = op ^ negated, values.pop(), right",
        "key = (op if op == UNTIL else op ^ negated), values.pop(), right",
        (
            "test_syntax.py::"
            "test_table_passes_equal_the_tree_passes_random",
            "test_ltl_engine.py::"
            "test_automaton_of_the_table_path_equals_reference_random",
        ),
    ),
    Mutant(
        "nnf-sugar-expansion-walked-positive",
        "syntax.py",
        "stack.append((top, negated))",
        "stack.append((top, False))",
        (
            "test_syntax.py::test_to_nnf_expands_sugar_row_for_row_random",
            "test_syntax.py::test_to_nnf_expands_sugar_row_for_row_golden",
        ),
    ),
    Mutant(
        "hash-stored-before-the-operands-have-theirs",
        "syntax.py",
        "key = t, f.left._hash, f.right._hash",
        "key = t, getattr(f.left, '_hash', 0), getattr(f.right, '_hash', 0)",
        ("test_syntax.py::test_hash_on_first_use_is_the_same_in_any_order",),
    ),
    Mutant(
        "fold-right-operand-unmapped",
        "syntax.py",
        "                right = values[right]\n",
        "                pass\n",
        (
            "test_syntax.py::test_core_table_rows_random",
            "test_syntax.py::test_shared_chain_node_count_is_linear",
            "test_implication.py::test_box_od_does_not_imply_weak_od",
        ),
    ),
    Mutant(
        "desugared-rows-appended",
        "syntax.py",
        "    _, make, finish = _new_table()\n\n    def core(",
        "    rows = []\n\n"
        "    def make(op, left, right=None):\n"
        "        rows.append((op, left, right))\n"
        "        return len(rows) - 1\n\n"
        "    def finish(root):\n"
        "        return (*map(list, zip(*rows)), root)\n\n"
        "    def core(",
        (
            "test_syntax.py::"
            "test_tables_hold_distinct_rows_all_reached_golden",
        ),
    ),
    # the well-formedness gate
    Mutant(
        "check-well-formed-walks-a-parsed-formula",
        "syntax.py",
        "    table = formula._table\n    if table is None:\n",
        "    table = None\n    if table is None:\n",
        (
            "test_solver.py::"
            "test_each_formula_is_checked_once_and_walked_at_most_once",
            "test_models.py::test_parsed_formula_evaluates_without_a_walk",
        ),
    ),
    Mutant(
        "check-well-formed-keeps-no-walked-table",
        "syntax.py",
        '        object.__setattr__(formula, "_table", table)\n',
        "",
        (
            "test_solver.py::"
            "test_each_formula_is_checked_once_and_walked_at_most_once",
        ),
    ),
    Mutant(
        "check-well-formed-skips-the-atom-rule",
        "syntax.py",
        "        _check_atoms(formula.prefix, _atom_rows(table))\n",
        "",
        (
            "test_models.py::"
            "test_entry_points_report_faults_as_check_well_formed",
            "test_models.py::"
            "test_reductions_report_faults_as_check_well_formed",
        ),
    ),
    Mutant(
        "ltl-sat-atoms-unchecked",
        "syntax.py",
        "        _check_atoms(formula.prefix, _atom_rows(table))\n",
        "        if formula.prefix:\n"
        "            _check_atoms(formula.prefix, _atom_rows(table))\n",
        ("test_ltl_engine.py::test_ltl_sat_rejects_an_indexed_atom",),
    ),
    # the split scan's guard
    Mutant(
        "split-scan-without-the-stray-search",
        "syntax.py",
        "        _STRAY(text.translate(_PLAIN))\n",
        "        False\n",
        (
            "test_syntax.py::test_parser_agrees_with_reference_parser",
            "test_syntax.py::test_split_tokens_are_the_scanned_tokens",
        ),
    ),
    Mutant(
        "split-scan-without-the-angle-counts",
        "syntax.py",
        '        or not text.count("-") == text.count(">") == text.count("->")\n'
        '        or text.count("<") != text.count("<->")\n',
        '        or text.count("-") != text.count("->")\n',
        (
            "test_syntax.py::test_parser_agrees_with_reference_parser",
            "test_syntax.py::test_split_tokens_are_the_scanned_tokens",
        ),
    ),
    # rendering from the rows
    Mutant(
        "render-from-nodes",
        "syntax.py",
        "root = _table_of(formula)\n    pieces = [head]",
        "root = core_table(getattr(formula, 'body', formula))\n"
        "    pieces = [head]",
        (
            "test_pcp.py::"
            "test_encoding_rendering_and_evaluation_make_no_nodes",
        ),
    ),
    Mutant(
        "render-false-as-true",
        "syntax.py",
        'pieces.append("true" if lhs[i] else "false")',
        'pieces.append("true" if lhs[i] is not None else "false")',
        ("test_syntax.py::test_render_matches_the_reference_fold_random",),
    ),
    # classification
    Mutant(
        "classify-ungated",
        "fragments.py",
        "    check_well_formed(formula)\n    prefix = formula.prefix\n",
        "    prefix = formula.prefix\n",
        (
            "test_fragments.py::"
            "test_unknown_quantifier_is_refused_not_classified",
            "test_models.py::"
            "test_entry_points_report_faults_as_check_well_formed",
            "test_models.py::"
            "test_reductions_report_faults_as_check_well_formed",
        ),
    ),
    # the correspondence encoder and its command
    Mutant(
        "pcp-disjunction-memo-without-trace",
        "pcp.py",
        "key = tuple(lefts), tuple(rights), trace",
        "key = tuple(lefts), tuple(rights)",
        (
            "test_golden.py::"
            "test_requests_answer_as_recorded[encode_pcp.jsonl-10]",
        ),
    ),
    Mutant(
        "encode-pcp-two-stdin-reads",
        "cli.py",
        'if args.instance == "-" and args.solution == "-":',
        "if False:",
        ("test_cli.py::test_bad_arguments_pinned[encode-pcp-stdin]",),
    ),
    Mutant(
        "encode-pcp-formula-made-for-the-witness",
        "cli.py",
        "    trace_lines = None\n",
        "    trace_lines = render(pcp.encode_pcp(instance)) and None\n",
        ("test_cli.py::test_encode_pcp_solution_makes_no_formula",),
    ),
    # the reductions and the solver
    Mutant(
        "zip-exists-tags-trace-1",
        "reductions.py",
        "return _tag(name, position[trace]), None",
        "return _tag(name, 1), None",
        (
            "test_reductions.py::test_zip_exists_golden_example",
            "test_reductions.py::test_zip_exists_two_traces_needed",
        ),
    ),
    Mutant(
        "unroll-reach-ignores-a-right-operand",
        "reductions.py",
        "                reached[rhs[i]] = 1\n",
        "                reached[rhs[i]] = 0\n",
        (
            "test_reductions.py::"
            "test_unroll_on_rows_equals_the_tree_definition_random",
            "test_golden.py::"
            "test_requests_answer_as_recorded[sat_mix.jsonl-1000]",
        ),
    ),
    Mutant(
        "unroll-first-universal-slowest",
        "reductions.py",
        "target = dict(zip(univ_vars, reversed(raw)))",
        "target = dict(zip(univ_vars, raw))",
        (
            "test_reductions.py::"
            "test_unroll_conjunct_order_first_universal_fastest",
        ),
    ),
    Mutant(
        "solve-desugars-first",
        "solver.py",
        "build_automaton(to_nnf(reduction.formula))",
        "build_automaton(to_nnf(desugar(reduction.formula)))",
        (
            "test_solver.py::"
            "test_solve_and_implication_make_no_desugared_table",
        ),
    ),
    Mutant(
        "implication-check-negates-the-antecedent",
        "implication.py",
        "make(AND, a, make(NOT, b))",
        "make(AND, make(NOT, a), b)",
        (
            "test_implication.py::test_box_od_does_not_imply_weak_od",
            "test_golden.py::"
            "test_requests_answer_as_recorded[implies.jsonl-200]",
        ),
    ),
    Mutant(
        "implication-universals-first",
        "implication.py",
        "key=lambda p: p[0] == FORALL",
        "key=lambda p: p[0] != FORALL",
        (
            "test_implication.py::test_weak_od_implies_box_od",
            "test_implication.py::test_holds_is_transitive",
        ),
    ),
    # the tableau
    Mutant(
        "tableau-token-merge-removed",
        "ltl_engine.py",
        "if tokens[n] != last:",
        "if True:",
        ("test_ltl_engine.py::test_rows_left_apart_index_as_one",),
    ),
    Mutant(
        "until-release-ranks-swapped",
        "ltl_engine.py",
        "head = bytes((op,))",
        "head = bytes((op ^ (UNTIL <= op <= RELEASE),))",
        (
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_random",
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[gf-fg]",
        ),
    ),
    Mutant(
        "two-closure-positions-swapped",
        "ltl_engine.py",
        "position[n] = size - 1",
        "position[n] = (size - 1) ^ (size <= 2)",
        (
            "test_ltl_engine.py::test_eventually_acceptance_set",
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[gf-apart]",
        ),
    ),
    Mutant(
        "self-clashing-alternatives-kept",
        "ltl_engine.py",
        "alive = [a for a in alternatives if not a[0] & a[1]]",
        "alive = list(alternatives)",
        (
            "test_ltl_engine.py::test_globally_forces_loop",
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[self-clash]",
        ),
    ),
    Mutant(
        "atoms-half-of-the-clash-relation-dropped",
        "ltl_engine.py",
        "                clash[atom] |= 1 << i\n",
        "",
        (
            "test_ltl_engine.py::test_witnesses_evaluate_true",
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[operand-clash]",
        ),
    ),
    Mutant(
        "decisions-not-reversed",
        "ltl_engine.py",
        "        self.decisions.reverse()\n",
        "",
        (
            "test_ltl_engine.py::"
            "test_saturations_equal_reference_saturations_nested_chain",
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[nested-chain-6]",
        ),
    ),
    Mutant(
        "state-order-reversed",
        "ltl_engine.py",
        "order = sorted(range(len(masks)), key=keys.__getitem__)",
        "order = sorted(range(len(masks)), key=keys.__getitem__, "
        "reverse=True)",
        (
            "test_ltl_engine.py::"
            "test_automaton_equals_reference_tableau_fixtures[no-branching]",
            "test_ltl_engine.py::"
            "test_lasso_equals_reference_lasso_fixtures[gf-apart]",
        ),
    ),
    Mutant(
        "acceptance-set-dropped",
        "ltl_engine.py",
        "for u, right in tableau.untils\n",
        "for u, right in tableau.untils[1:]\n",
        (
            "test_ltl_engine.py::test_eventually_acceptance_set",
            "test_ltl_engine.py::"
            "test_emptiness_agrees_with_emerson_lei_fixtures[gf-fg]",
        ),
    ),
    Mutant(
        "lasso-in-the-greatest-component",
        "ltl_engine.py",
        "for s in min(accepting, key=min):",
        "for s in max(accepting, key=min):",
        (
            "test_ltl_engine.py::"
            "test_lasso_equals_reference_lasso_fixtures[nested-chain-6]",
            "test_ltl_engine.py::test_lasso_equals_reference_lasso_random",
        ),
    ),
    # the evaluator
    Mutant(
        "weak-until-evaluated-as-until",
        "models.py",
        "base, flip = (a ^ full) & grow, full",
        "grow, base, flip = a, values[b], 0",
        (
            "test_models.py::"
            "test_evaluate_ltl_on_sugar_matches_the_naive_evaluator_random",
            "test_models.py::test_sugar_rows_evaluate_as_desugared_random",
        ),
    ),
]


def copy_tree(into: Path) -> None:
    for name in COPIED:
        shutil.copytree(
            ROOT / name,
            into / name,
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )


def failed_tests(tree: Path, tests) -> set[str] | None:
    """The ids of the tests that fail on the tree, or None if the run
    passes the time limit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no",
             "-p", "no:cacheprovider", *["tests/" + t for t in tests]],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIME_LIMIT,
        )
    except subprocess.TimeoutExpired:
        return None
    if run.returncode not in (0, 1):  # a collection or usage error
        sys.exit(f"pytest could not run {tests}:\n{run.stdout}{run.stderr}")
    return {
        line.removeprefix("FAILED tests/").split(" - ")[0]
        for line in run.stdout.splitlines()
        if line.startswith("FAILED ")
    }


def caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"no mutant named {sorted(unknown)}")
    faults = 0
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        failed = failed_tests(clean, tests)
        if failed is None or failed:
            print(f"the unmutated tree fails {sorted(failed or ['by time'])}")
            return 1
        for n, mutant in enumerate(chosen):
            tree = Path(scratch) / f"mutant-{n}"
            copy_tree(tree)
            path = tree / "src" / "hypersat" / mutant.file
            source = path.read_text(encoding="utf-8")
            found = source.count(mutant.text)
            if found != 1:
                print(f"MISSING  {mutant.name}: its text is in {mutant.file} "
                      f"{found} times, not once; plant it again")
                faults += 1
                continue
            path.write_text(
                source.replace(mutant.text, mutant.replacement),
                encoding="utf-8",
            )
            start = time.perf_counter()
            failed = failed_tests(tree, mutant.tests)
            seconds = time.perf_counter() - start
            if failed is None:
                print(f"TIMEOUT  {mutant.name}: past {TIME_LIMIT} s")
                faults += 1
                continue
            survived = [t for t in mutant.tests if not caught(t, failed)]
            if survived:
                print(f"SURVIVED {mutant.name}: {', '.join(survived)} "
                      f"passed ({seconds:.1f} s)")
                faults += 1
            else:
                print(f"killed   {mutant.name} by {len(mutant.tests)} "
                      f"test(s) ({seconds:.1f} s)")
    print(f"{len(chosen) - faults} of {len(chosen)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
