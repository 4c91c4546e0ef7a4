"""Reductions from quantified formulas to plain LTL satisfiability.

Three routes, one per decidable fragment:
  * forall-only: drop the quantifiers and the trace indices; the formula
    is satisfiable iff that single-trace projection is.
  * exists-only: zip the n quantified traces into one trace over a fresh
    alphabet that tags each proposition with its trace position.
  * exists-forall: substitute every combination of existential variables
    for the universal ones, conjoin, then zip the remaining exists block.

Each reduction works on the rows of the formula's table, the parser's for
a parsed formula, and hands on a HyperFormula with that prefix whose
body is made only if read: the quantifier-free ones relabel the atom
rows, row for row, and the unrolling copies only the rows that mention a
universal variable, sharing the rest among all the copies, and
deduplicates the conjuncts by their rows in one hash-consed table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .errors import AlphabetMismatch, ResourceLimit, WrongFragment
from .fragments import ExistsForall, ExistsStar, ForallStar, classify
from .models import TraceSet, UltimatelyPeriodicTrace
from .syntax import (
    AND,
    ATOM,
    CONST,
    EXISTS,
    HyperFormula,
    _from_table,
    _new_table,
    _relabelled,
    _table_of,
)

DEFAULT_UNROLL_LIMIT = 1_000_000


def _tag(name: str, i: int) -> str:
    """Proposition name of trace i in the zipped alphabet."""
    return f"{name}@{i}"


@dataclass(frozen=True)
class Substitution:
    """The zipped alphabet of zip_exists: proposition a of trace i
    (1-based) is tagged 'a@i', and inverse reads a tag back."""

    alphabet: tuple[str, ...]
    arity: int

    def inverse(self, fresh: str) -> tuple[str, int]:
        """The (name, i) that _tag tags as fresh, for 1 <= i <= arity."""
        name, _, idx = fresh.rpartition("@")
        i = int(idx) if idx.isascii() and idx.isdigit() else 0
        if name not in self.alphabet or _tag(name, i) != fresh:
            raise AlphabetMismatch(f"{fresh!r} is not a tagged proposition")
        if not 1 <= i <= self.arity:
            raise AlphabetMismatch(f"{fresh!r} tags trace {i}, arity {self.arity}")
        return name, i


@dataclass(frozen=True)
class LtlReduction:
    """A plain LTL satisfiability problem equivalent to the source formula,
    plus what is needed to translate a satisfying lasso back.  formula is
    a HyperFormula with an empty prefix, whose body is made on first
    read from the reduction's table."""

    formula: HyperFormula
    substitution: Substitution | None


def relabel(formula: HyperFormula, prefix: tuple, atom) -> HyperFormula:
    """The formula under a new prefix, each atom row of its table
    relabelled by atom(name, trace), which gives the new (name, trace),
    in one row pass."""
    return _from_table(prefix, _relabelled(_table_of(formula), atom))


def drop_quantifiers(formula: HyperFormula) -> LtlReduction:
    """forall-only: strip the prefix and all trace indices.  Any single
    trace satisfying the body on its own yields the singleton model."""
    cls = classify(formula)
    if not isinstance(cls, ForallStar):
        raise WrongFragment(f"drop_quantifiers needs forall-only, got {cls.name}")
    plain = relabel(formula, (), lambda name, _: (name, None))
    return LtlReduction(plain, None)


def zip_exists(formula: HyperFormula) -> LtlReduction:
    """exists-only: merge the n traces into one over a tagged alphabet."""
    cls = classify(formula)
    if not isinstance(cls, ExistsStar):
        raise WrongFragment(f"zip_exists needs exists-only, got {cls.name}")
    position = {var: i + 1 for i, (_, var) in enumerate(formula.prefix)}
    names: set[str] = set()

    def tagged(name: str, trace: str) -> tuple[str, None]:
        names.add(name)
        return _tag(name, position[trace]), None

    zipped = relabel(formula, (), tagged)
    sub = Substitution(tuple(sorted(names)), cls.n)
    return LtlReduction(zipped, sub)


def _substituted(formula: HyperFormula, table, tops: list[int]):
    """Every substitution of existential variables for the universal
    ones, applied to the table's rows in tops, as a new hash-consed table
    being built, its make and finish of _new_table, and each
    substitution's rows of tops, the first universal variable cycling
    fastest through the existential choices.  Only the rows that mention
    a universal variable are copied per substitution; the rows that
    mention none are copied once, and shared by all the copies."""
    exist_vars = [v for q, v in formula.prefix if q == EXISTS]
    univ_vars = [v for q, v in formula.prefix if q != EXISTS]
    ops, lhs, rhs, _ = table
    # the rows that tops reach, users before their operands
    reached = bytearray(len(ops))
    for top in tops:
        reached[top] = 1
    for i in range(max(tops), -1, -1):
        if reached[i] and ops[i] > CONST:
            reached[lhs[i]] = 1
            if rhs[i] is not None:
                reached[rhs[i]] = 1
    _, make, finish = _new_table()
    shared: list = [None] * len(ops)  # the new row of each shared row
    mentions = bytearray(len(ops))
    copied = []  # the rows to copy per substitution, operands first
    for i, op in enumerate(ops):
        left, right = lhs[i], rhs[i]
        if op == ATOM:
            mentions[i] = right in univ_vars
        elif op > CONST:
            mentions[i] = mentions[left] or (
                right is not None and mentions[right]
            )
        if not reached[i]:
            continue
        if mentions[i]:
            copied.append(i)
        elif op <= CONST:
            shared[i] = make(op, left, right)
        else:
            shared[i] = make(
                op, shared[left], None if right is None else shared[right]
            )
    copies = []
    for raw in itertools.product(exist_vars, repeat=len(univ_vars)):
        # the first universal variable varies fastest
        target = dict(zip(univ_vars, reversed(raw)))
        rows = shared[:]
        for i in copied:
            op, left, right = ops[i], lhs[i], rhs[i]
            if op == ATOM:
                rows[i] = make(ATOM, left, target[right])
            else:
                rows[i] = make(
                    op, rows[left], None if right is None else rows[right]
                )
        copies.append([rows[top] for top in tops])
    return make, finish, copies


def unroll_universals(
    formula: HyperFormula, limit: int = DEFAULT_UNROLL_LIMIT
) -> HyperFormula:
    """Replace the trailing forall block by the conjunction of all
    substituted bodies, on rows.  The conjunction is flattened and
    deduplicated (first occurrence wins) before being rebuilt
    left-associatively.  Each body's conjuncts are the substitutions of
    the input's conjuncts, so those are substituted, and the copies, one
    hash-consed table, are equal exactly when their rows are."""
    cls = classify(formula)
    if not isinstance(cls, ExistsForall):
        raise WrongFragment(f"unroll_universals needs exists-forall, got {cls.name}")
    required = cls.n**cls.m
    if required > limit:
        raise ResourceLimit("unroll", required, limit)

    table = _table_of(formula)
    ops, lhs, rhs, root = table
    pieces = []
    stack = [root]
    while stack:
        row = stack.pop()
        if ops[row] == AND:
            stack += (rhs[row], lhs[row])
        else:
            pieces.append(row)
    make, finish, copies = _substituted(formula, table, pieces)
    parts = list(dict.fromkeys([row for rows in copies for row in rows]))
    body = reduce(lambda left, right: make(AND, left, right), parts)
    exists_prefix = tuple(
        (q, v) for q, v in formula.prefix if q == EXISTS
    )
    return _from_table(exists_prefix, finish(body))


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

