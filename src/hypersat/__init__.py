"""Satisfiability, implication checking, and model evaluation for
temporal formulas quantified over execution traces."""

from types import ModuleType as _ModuleType

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
    unroll_universals,
    zip_exists,
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
    parse_hyperltl,
    render,
    to_nnf,
)

# The public API: every name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
