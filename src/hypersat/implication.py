"""Implication and equivalence checking between alternation-free formulas.

An implication fails exactly when some non-empty trace set satisfies the
antecedent but not the consequent.  That search is itself a satisfiability
question: conjoin the antecedent body with the negated consequent body and
quantify so that the antecedent keeps its force while the consequent is
refuted.  Per quantifier shape of (antecedent, consequent):

    forall => forall:  exists(consequent vars) forall(antecedent vars)
    exists => exists:  exists(antecedent vars) forall(consequent vars)
    forall => exists:  forall(both)
    exists => forall:  exists(both)

Each lands in a decidable fragment, so the solver settles it; a satisfying
model is a countermodel to the implication.  With model verification on,
the countermodel is re-checked against the two input formulas themselves,
so the renaming and the prefix choice above are checked too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fragments import ExistsStar, ForallStar, classify
from .models import TraceSet, evaluate_hyperltl
from .solver import Sat, SolverOptions, Unsat, hyper_sat
from .syntax import (
    And,
    EXISTS,
    FORALL,
    HyperFormula,
    Not,
    check_well_formed,
    rename_trace_variable,
)


_FLIP = {EXISTS: FORALL, FORALL: EXISTS}


class ImplicationVerdict:
    __slots__ = ()


@dataclass(frozen=True)
class Holds(ImplicationVerdict):
    pass


@dataclass(frozen=True)
class Fails(ImplicationVerdict):
    countermodel: TraceSet


@dataclass(frozen=True)
class Unsupported(ImplicationVerdict):
    message: str


def _rename_apart(formula: HyperFormula, taken: set[str]) -> HyperFormula:
    body = formula.body
    prefix = list(formula.prefix)
    used = taken | {v for _, v in prefix}
    for i, (quant, var) in enumerate(prefix):
        if var not in taken:
            continue
        counter = 2
        while f"{var}{counter}" in used:
            counter += 1
        fresh = f"{var}{counter}"
        used.add(fresh)
        prefix[i] = (quant, fresh)
        body = rename_trace_variable(body, var, fresh)
    return HyperFormula(tuple(prefix), body)


def check_implication(
    antecedent: HyperFormula,
    consequent: HyperFormula,
    options: SolverOptions | None = None,
) -> ImplicationVerdict:
    check_well_formed(antecedent)
    check_well_formed(consequent)
    if not antecedent.prefix or not consequent.prefix:
        raise errors.WellFormednessError(
            "implication checking needs quantified formulas on both sides"
        )
    left_cls = classify(antecedent)
    right_cls = classify(consequent)
    for side, cls in (("antecedent", left_cls), ("consequent", right_cls)):
        if not isinstance(cls, (ExistsStar, ForallStar)):
            return Unsupported(
                f"the {side} is in the {cls.name} fragment; implication "
                "checking supports exists-only and forall-only formulas"
            )

    # The antecedent keeps its quantifiers, the consequent's flip, and the
    # existentials go first; the stable sort keeps each side's order.
    renamed = _rename_apart(consequent, {v for _, v in antecedent.prefix})
    flipped = tuple((_FLIP[q], v) for q, v in renamed.prefix)
    prefix = sorted(antecedent.prefix + flipped, key=lambda p: p[0] == FORALL)
    check = HyperFormula(
        tuple(prefix), And(antecedent.body, Not(renamed.body))
    )
    opts = options or SolverOptions()
    result = hyper_sat(check, opts)
    match result:
        case Unsat():
            return Holds()
        case Sat(model, _):
            if opts.verify_models and not (
                evaluate_hyperltl(model, antecedent, opts.period_guard)
                and not evaluate_hyperltl(model, consequent, opts.period_guard)
            ):
                raise errors.InternalError(
                    "implication check produced a countermodel that does "
                    "not refute the implication; this is a bug"
                )
            return Fails(model)
        case _:
            raise errors.InternalError(
                f"unexpected solver result {result!r} on a decidable check"
            )


def check_equivalence(
    left: HyperFormula,
    right: HyperFormula,
    options: SolverOptions | None = None,
) -> tuple[ImplicationVerdict, ImplicationVerdict]:
    return (
        check_implication(left, right, options),
        check_implication(right, left, options),
    )
