"""Satisfiability for quantified formulas over the decidable fragments.

Dispatches on the quantifier prefix: forall-only drops quantifiers,
exists-only zips, exists-forall unrolls then zips.  Anything with a forall
before an exists is refused with a diagnostic rather than guessed at.
Satisfiable verdicts carry a model that is re-checked against the original
formula by the evaluator unless verification is switched off.  An
unrolling or a re-check past its limit raises errors.ResourceLimit.

One table goes from the parser to the tableau: the reduction relabels or
copies the parsed table's rows into a prefix-free HyperFormula, to_nnf
makes the NNF table in one walk that expands sugar, build_automaton
indexes that table straight into the tableau's bit tables, and the model
is checked on the parsed table, so a parsed formula is neither walked
nor made into a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fragments import (
    ExistsForall,
    ExistsStar,
    ForallStar,
    FragmentClass,
    classify,
)
from .ltl_engine import build_automaton, check_emptiness
from .models import DEFAULT_PERIOD_GUARD, TraceSet, evaluate_hyperltl
from .reductions import (
    DEFAULT_UNROLL_LIMIT,
    drop_quantifiers,
    extract_model,
    unroll_universals,
    zip_exists,
)
# solve does not call desugar; the name stays for perfbench/spans.py to
# patch (SOLVER_CALLS) until ROADMAP item 2b replaces the patching.
from .syntax import HyperFormula, check_well_formed, desugar, to_nnf


@dataclass(frozen=True)
class SolverOptions:
    unroll_limit: int = DEFAULT_UNROLL_LIMIT
    verify_models: bool = True
    period_guard: int = DEFAULT_PERIOD_GUARD

    def __post_init__(self):
        if self.unroll_limit < 1 or self.period_guard < 1:
            raise ValueError("limits must be at least 1")


class HyperSatResult:
    __slots__ = ()


@dataclass(frozen=True)
class Sat(HyperSatResult):
    model: TraceSet
    verified: bool


@dataclass(frozen=True)
class Unsat(HyperSatResult):
    pass


@dataclass(frozen=True)
class UnsupportedFragment(HyperSatResult):
    fragment: FragmentClass
    message: str


@dataclass(frozen=True)
class SolveStats:
    conjuncts: int | None = None
    automaton_states: int | None = None


def solve(
    formula: HyperFormula, options: SolverOptions | None = None
) -> tuple[HyperSatResult, SolveStats]:
    opts = options or SolverOptions()
    check_well_formed(formula)
    if not formula.prefix:
        raise errors.WellFormednessError(
            "satisfiability needs a quantified formula"
        )
    cls = classify(formula)

    conjuncts = None
    match cls:
        case ForallStar():
            reduction = drop_quantifiers(formula)
        case ExistsStar():
            reduction = zip_exists(formula)
        case ExistsForall(n, m):
            conjuncts = n**m
            reduction = zip_exists(
                unroll_universals(formula, opts.unroll_limit)
            )
        case _:
            message = (
                f"the {cls.name} fragment is undecidable for "
                "satisfiability; this tool decides exists-only, "
                "forall-only, and exists-forall prefixes"
            )
            return UnsupportedFragment(cls, message), SolveStats()

    automaton = build_automaton(to_nnf(reduction.formula))
    stats = SolveStats(conjuncts, len(automaton.states))
    lasso = check_emptiness(automaton)
    if lasso is None:
        return Unsat(), stats

    model = extract_model(lasso, reduction)
    verified = False
    if opts.verify_models:
        if not evaluate_hyperltl(model, formula, opts.period_guard):
            raise errors.InternalError(
                "solver produced a model the evaluator rejects for "
                f"{cls.name} input; this is a bug"
            )
        verified = True
    return Sat(model, verified), stats


def hyper_sat(
    formula: HyperFormula, options: SolverOptions | None = None
) -> HyperSatResult:
    return solve(formula, options)[0]
