"""The public surface: every name `hypersat` exports, and the fields of
the exported dataclasses that callers build or read.  A change that adds
or removes one edits this file, and says so.  No submodule is exported:
`from hypersat import *` binds the API names only."""

import dataclasses

import pytest

import hypersat

EXPORTS = [
    "AlphabetMismatch", "And", "Atom", "Const", "Eventually",
    "ExistsForall", "ExistsStar", "FALSE", "Fails", "ForallExists",
    "ForallStar", "Formula", "FragmentClass", "GeneralizedBuchiAutomaton",
    "Globally", "Holds", "HyperFormula", "HyperSatResult",
    "HypersatError", "Iff", "ImplicationVerdict", "Implies",
    "InternalError", "InvalidInstance", "LtlReduction",
    "MultiAlternation", "Next", "Not", "NotASolution", "Or",
    "PairAlphabet", "ParseError", "PcpInstance", "Release",
    "ResourceLimit", "Sat", "SolveStats", "SolverOptions", "Substitution",
    "TRUE", "TraceSet", "UltimatelyPeriodicTrace", "Unsat", "Unsupported",
    "UnsupportedFragment", "Until", "WeakUntil", "WellFormednessError",
    "WrongFragment", "build_automaton", "check_emptiness",
    "check_equivalence", "check_implication", "check_well_formed",
    "classify", "desugar", "drop_quantifiers", "encode_pcp",
    "encode_solution_traceset", "evaluate_hyperltl", "evaluate_ltl",
    "extract_model", "format_trace", "hyper_sat", "ltl_sat",
    "parse_hyperltl", "parse_trace", "parse_trace_set", "project",
    "render", "solve", "to_nnf", "unroll_universals", "zip_exists",
]

FIELDS = {
    "GeneralizedBuchiAutomaton": [
        "states", "initial", "transitions", "acceptance", "names", "atoms",
    ],
    "LtlReduction": ["formula", "substitution"],
    "Substitution": ["alphabet", "arity"],
    "SolveStats": ["conjuncts", "automaton_states"],
    "Sat": ["model", "verified"],
}


def test_exported_names():
    assert hypersat.__all__ == EXPORTS


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields(name):
    got = [f.name for f in dataclasses.fields(getattr(hypersat, name))]
    assert got == FIELDS[name]


def test_star_import_binds_no_submodule():
    names: dict = {}
    exec("from hypersat import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(EXPORTS)
