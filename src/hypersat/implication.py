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
model is a countermodel to the implication.  The check formula's table is
made from the two parsed tables: the consequent's atom rows relabelled
apart, as the reductions relabel, its rows placed after the antecedent's,
and one row each for the negation and the conjunction.  With model verification on,
the countermodel is re-checked against the two input formulas themselves,
so the renaming and the prefix choice above are checked too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fragments import ExistsStar, ForallStar, classify
from .models import TraceSet, evaluate_hyperltl
from .reductions import relabel
from .solver import Sat, SolverOptions, Unsat, hyper_sat
from .syntax import (
    AND,
    CONST,
    EXISTS,
    FORALL,
    NOT,
    HyperFormula,
    _from_table,
    _table_of,
    check_well_formed,
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
    """The formula with each variable in taken renamed to a fresh one, its
    atom rows relabelled as the reductions relabel them."""
    prefix = list(formula.prefix)
    used = taken | {v for _, v in prefix}
    fresh: dict[str, str] = {}  # old variable -> its new name
    for i, (quant, var) in enumerate(prefix):
        if var not in taken:
            continue
        counter = 2
        while f"{var}{counter}" in used:
            counter += 1
        fresh[var] = f"{var}{counter}"
        used.add(fresh[var])
        prefix[i] = (quant, fresh[var])
    if not fresh:
        return formula
    return relabel(
        formula,
        tuple(prefix),
        lambda name, trace: (name, fresh.get(trace, trace)),
    )


def _and_not(left, right):
    """The table of And(left, Not(right)) from the two bodies' tables: the
    right rows after the left, moved up past them, and two rows more."""
    ops, lhs, rhs, root = left
    r_ops, r_lhs, r_rhs, r_root = right
    k = len(ops)

    def moved(column):
        return [
            row if op <= CONST or row is None else row + k
            for op, row in zip(r_ops, column)
        ]

    negated = k + len(r_ops)
    return (
        ops + r_ops + [NOT, AND],
        lhs + moved(r_lhs) + [r_root + k, root],
        rhs + moved(r_rhs) + [None, negated],
        negated + 1,
    )


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
    check = _from_table(
        tuple(prefix), _and_not(_table_of(antecedent), _table_of(renamed))
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
