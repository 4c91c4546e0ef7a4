"""Satisfiability, implication checking, and model evaluation for
temporal formulas quantified over execution traces."""

from .errors import (
    AlphabetMismatch,
    HypersatError,
    InternalError,
    InvalidInstance,
    NotASolution,
    ParseError,
    ResourceLimit,
    WellFormednessError,
    WrongFragment,
)
from .fragments import (
    ExistsForall,
    ExistsStar,
    ForallExists,
    ForallStar,
    FragmentClass,
    MultiAlternation,
    classify,
)
from .implication import (
    Fails,
    Holds,
    ImplicationVerdict,
    Unsupported,
    check_equivalence,
    check_implication,
)
from .ltl_engine import (
    GeneralizedBuchiAutomaton,
    build_automaton,
    check_emptiness,
    ltl_sat,
)
from .models import (
    TraceSet,
    UltimatelyPeriodicTrace,
    evaluate_hyperltl,
    evaluate_ltl,
    format_trace,
    format_trace_set,
    make_trace,
    parse_trace,
    parse_trace_set,
)
from .pcp import (
    PairAlphabet,
    PcpInstance,
    encode_pcp,
    encode_solution_traceset,
)
from .reductions import (
    LtlReduction,
    Substitution,
    drop_quantifiers,
    extract_model,
    project,
    substituted_conjuncts,
    unroll_universals,
    zip_exists,
    zip_traces,
)
from .solver import (
    HyperSatResult,
    Sat,
    SolveStats,
    SolverOptions,
    Unsat,
    UnsupportedFragment,
    hyper_sat,
    solve,
)
from .syntax import (
    And,
    Atom,
    Const,
    Eventually,
    FALSE,
    Formula,
    Globally,
    HyperFormula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    Until,
    WeakUntil,
    check_well_formed,
    desugar,
    free_trace_variables,
    parse_hyperltl,
    render,
    to_nnf,
)

# The public API: every name imported above, and no submodule.
__all__ = [
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
    "extract_model", "format_trace", "format_trace_set",
    "free_trace_variables", "hyper_sat", "ltl_sat", "make_trace",
    "parse_hyperltl", "parse_trace", "parse_trace_set", "project",
    "render", "solve", "substituted_conjuncts", "to_nnf",
    "unroll_universals", "zip_exists", "zip_traces",
]
