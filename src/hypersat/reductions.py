"""Reductions from quantified formulas to plain LTL satisfiability.

Three routes, one per decidable fragment:
  * forall-only: drop the quantifiers and the trace indices; the formula
    is satisfiable iff that single-trace projection is.
  * exists-only: zip the n quantified traces into one trace over a fresh
    alphabet that tags each proposition with its trace position.
  * exists-forall: substitute every combination of existential variables
    for the universal ones, conjoin, then zip the remaining exists block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

from .errors import AlphabetMismatch, ResourceLimit, WrongFragment
from .fragments import ExistsForall, ExistsStar, ForallStar, classify
from .models import TraceSet, UltimatelyPeriodicTrace
from .syntax import (
    And,
    Atom,
    EXISTS,
    Formula,
    HyperFormula,
    map_atoms,
)

DEFAULT_UNROLL_LIMIT = 1_000_000


def _tag(name: str, i: int) -> str:
    """Proposition name of trace i in the zipped alphabet."""
    return f"{name}@{i}"


@dataclass(frozen=True)
class Substitution:
    """Tags proposition a of trace i (1-based) as 'a@i' in the zipped
    alphabet, and back."""

    alphabet: tuple[str, ...]
    arity: int

    def forward(self, name: str, i: int) -> str:
        if name not in self.alphabet or not 1 <= i <= self.arity:
            raise AlphabetMismatch(f"({name!r}, {i}) outside the substitution")
        return _tag(name, i)

    def inverse(self, fresh: str) -> tuple[str, int]:
        """The (name, i) that forward tags as fresh, for 1 <= i <= arity."""
        name, _, idx = fresh.rpartition("@")
        i = int(idx) if idx.isascii() and idx.isdigit() else 0
        if name not in self.alphabet or _tag(name, i) != fresh:
            raise AlphabetMismatch(f"{fresh!r} is not a tagged proposition")
        if not 1 <= i <= self.arity:
            raise AlphabetMismatch(f"{fresh!r} tags trace {i}, arity {self.arity}")
        return name, i

    def fresh_alphabet(self) -> tuple[str, ...]:
        return tuple(
            _tag(a, i)
            for i in range(1, self.arity + 1)
            for a in self.alphabet
        )


@dataclass(frozen=True)
class LtlReduction:
    """A plain LTL satisfiability problem equivalent to the source formula,
    plus what is needed to translate a satisfying lasso back."""

    formula: Formula
    substitution: Substitution | None


def drop_quantifiers(formula: HyperFormula) -> LtlReduction:
    """forall-only: strip the prefix and all trace indices.  Any single
    trace satisfying the body on its own yields the singleton model."""
    cls = classify(formula)
    if not isinstance(cls, ForallStar):
        raise WrongFragment(f"drop_quantifiers needs forall-only, got {cls.name}")
    plain = map_atoms(formula.body, lambda a: Atom(a.name))
    return LtlReduction(plain, None)


def zip_exists(formula: HyperFormula) -> LtlReduction:
    """exists-only: merge the n traces into one over a tagged alphabet."""
    cls = classify(formula)
    if not isinstance(cls, ExistsStar):
        raise WrongFragment(f"zip_exists needs exists-only, got {cls.name}")
    position = {var: i + 1 for i, (_, var) in enumerate(formula.prefix)}
    names: set[str] = set()

    def tagged(a: Atom) -> Atom:
        names.add(a.name)
        return Atom(_tag(a.name, position[a.trace]))

    zipped = map_atoms(formula.body, tagged)
    sub = Substitution(tuple(sorted(names)), cls.n)
    return LtlReduction(zipped, sub)


def substituted_conjuncts(formula: HyperFormula) -> list[Formula]:
    """exists-forall: one copy of the body per assignment of existential
    variables to the universal ones.  The first universal variable cycles
    fastest through the existential choices.  Only atoms of universal
    variables are replaced, so a subformula that has none comes back as
    itself in every copy."""
    cls = classify(formula)
    if not isinstance(cls, ExistsForall):
        raise WrongFragment(
            f"substituted_conjuncts needs exists-forall, got {cls.name}"
        )
    exist_vars = [v for q, v in formula.prefix if q == EXISTS]
    univ_vars = [v for q, v in formula.prefix if q != EXISTS]
    out = []
    for raw in itertools.product(range(cls.n), repeat=cls.m):
        choice = tuple(reversed(raw))  # first universal varies fastest
        target = {u: exist_vars[j] for u, j in zip(univ_vars, choice)}
        out.append(
            map_atoms(
                formula.body,
                lambda a: (
                    Atom(a.name, target[a.trace]) if a.trace in target else a
                ),
            )
        )
    return out


def _flatten_and(formula: Formula) -> list[Formula]:
    """The conjuncts of a nest of And nodes, left to right."""
    parts = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        else:
            parts.append(f)
    return parts


def unroll_universals(
    formula: HyperFormula, limit: int = DEFAULT_UNROLL_LIMIT
) -> HyperFormula:
    """Replace the trailing forall block by the conjunction of all
    substituted bodies.  The conjunction is flattened and deduplicated
    (first occurrence wins) before being rebuilt left-associatively."""
    cls = classify(formula)
    if not isinstance(cls, ExistsForall):
        raise WrongFragment(f"unroll_universals needs exists-forall, got {cls.name}")
    required = cls.n**cls.m
    if required > limit:
        raise ResourceLimit("unroll", required, limit)

    parts = []
    seen = set()
    for conjunct in substituted_conjuncts(formula):
        for piece in _flatten_and(conjunct):
            if piece not in seen:
                seen.add(piece)
                parts.append(piece)
    body = reduce(And, parts)
    exists_prefix = tuple(
        (q, v) for q, v in formula.prefix if q == EXISTS
    )
    return HyperFormula(exists_prefix, body)


def project(trace: UltimatelyPeriodicTrace, sub: Substitution) -> TraceSet:
    """Split a lasso over the tagged alphabet back into the original
    traces.  Keeps the stem/loop structure of the input; duplicates
    collapse because the result is a set.  A proposition that is no tag
    of the substitution raises AlphabetMismatch, from sub.inverse."""

    def split(valuation: frozenset[str], i: int) -> frozenset[str]:
        out = set()
        for fresh_name in valuation:
            name, tag = sub.inverse(fresh_name)
            if tag == i:
                out.add(name)
        return frozenset(out)

    traces = []
    for i in range(1, sub.arity + 1):
        stem = tuple(split(v, i) for v in trace.stem)
        loop = tuple(split(v, i) for v in trace.loop)
        traces.append(UltimatelyPeriodicTrace(stem, loop))
    return TraceSet(frozenset(traces))


def extract_model(
    lasso: UltimatelyPeriodicTrace, reduction: LtlReduction
) -> TraceSet:
    """Turn a satisfying lasso of a reduced LTL formula back into a trace
    set for the original formula."""
    if reduction.substitution is None:
        return TraceSet(frozenset({lasso}))
    return project(lasso, reduction.substitution)


def zip_traces(
    traces: list[UltimatelyPeriodicTrace], sub: Substitution
) -> UltimatelyPeriodicTrace:
    """Merge traces t_1..t_n positionwise into one trace whose valuation
    at j is the union of the tagged valuations t_i[j]."""
    if len(traces) != sub.arity:
        raise AlphabetMismatch(
            f"expected {sub.arity} traces, got {len(traces)}"
        )
    stem_len = max(len(t.stem) for t in traces)
    loop_len = 1
    for t in traces:
        loop_len = math.lcm(loop_len, len(t.loop))
    joint = []
    for j in range(stem_len + loop_len):
        val = set()
        for i, t in enumerate(traces, start=1):
            for name in t.valuation_at(j):
                val.add(sub.forward(name, i))
        joint.append(frozenset(val))
    return UltimatelyPeriodicTrace(
        tuple(joint[:stem_len]), tuple(joint[stem_len:])
    )
