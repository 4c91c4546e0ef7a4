"""Ultimately periodic traces, trace sets, and formula evaluation.

A trace is a finite stem followed by a forever-repeated non-empty loop.
Evaluation computes, per subformula, a truth bitmask over the positions
0 .. |stem|+|loop|-1 of the (joint) lasso; position i+1 wraps back to the
loop start at the end.  A least fixpoint decides U, and R as its dual,
which is equivalent to scanning positions up to |stem| + 2*|loop| with
loop-aware memoization: truth values are periodic past the stem.

One kernel serves both entry points.  It runs on the desugared body's
`syntax.core_table`, the post-order node table that the tableau closure
also starts from, in which equal subformulas share a row.  Each row
memoizes its masks keyed by the trace indices that the current assignment
gives the row's free variables, so a subformula is evaluated once per
distinct binding of the traces it reads, however many assignments the
quantifier prefix enumerates.  Plain LTL evaluation is the case of one
unindexed variable bound to the one trace.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import syntax
from .errors import ParseError, ResourceLimit, WellFormednessError
from .syntax import (
    AND,
    ATOM,
    CONST,
    EXISTS,
    NEXT,
    NOT,
    OR,
    RELEASE,
    Formula,
    HyperFormula,
    core_table,
)

DEFAULT_PERIOD_GUARD = 10_000


@dataclass(frozen=True)
class UltimatelyPeriodicTrace:
    stem: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("trace loop must be non-empty")

    def valuation_at(self, i: int) -> frozenset[str]:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def tail(self) -> "UltimatelyPeriodicTrace":
        """The suffix starting at position 1."""
        if self.stem:
            return UltimatelyPeriodicTrace(self.stem[1:], self.loop)
        return UltimatelyPeriodicTrace((), self.loop[1:] + self.loop[:1])

    def propositions(self) -> frozenset[str]:
        out = set()
        for v in self.stem + self.loop:
            out |= v
        return frozenset(out)

    def canonical(self) -> "UltimatelyPeriodicTrace":
        """Shortest stem, shortest loop representation of the same word."""
        loop = list(self.loop)
        for d in range(1, len(loop) + 1):
            if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
                loop = loop[:d]
                break
        stem = list(self.stem)
        while stem and stem[-1] == loop[-1]:
            stem.pop()
            loop = [loop[-1]] + loop[:-1]
        return UltimatelyPeriodicTrace(tuple(stem), tuple(loop))


def make_trace(stem, loop) -> UltimatelyPeriodicTrace:
    return UltimatelyPeriodicTrace(
        tuple(frozenset(v) for v in stem), tuple(frozenset(v) for v in loop)
    )


@dataclass(frozen=True)
class TraceSet:
    traces: frozenset[UltimatelyPeriodicTrace]

    def __post_init__(self):
        if not self.traces:
            raise ValueError("a trace set must be non-empty")

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self):
        return len(self.traces)

    def sorted(self) -> list[UltimatelyPeriodicTrace]:
        return sorted(self.traces, key=trace_sort_key)


def trace_sort_key(t: UltimatelyPeriodicTrace):
    return (
        len(t.stem),
        len(t.loop),
        tuple(tuple(sorted(v)) for v in t.stem),
        tuple(tuple(sorted(v)) for v in t.loop),
    )


# ---------------------------------------------------------------------------
# Evaluation

def _no_key(assignment: tuple) -> tuple:
    return ()


class _Kernel:
    """A desugared formula's `core_table`, evaluated over assignments of
    trace indices to variables.

    Row i keeps the table's operation code and operands, with an atom's
    trace replaced by its variable's position, and a memo of truth masks
    over the joint lasso, keyed by the trace indices that the assignment
    gives the row's free variables.  Equal subformulas share a row, so a
    subformula is evaluated once per distinct binding of the traces it
    reads.
    """

    def __init__(
        self,
        formula: Formula,
        variables: tuple[str | None, ...],
        traces: list[UltimatelyPeriodicTrace],
        stem_len: int,
        loop_len: int,
    ):
        _, ops, lhs, rhs, self.root = core_table(formula)
        position = {v: k for k, v in enumerate(variables)}
        frees: list[tuple[int, ...]] = []
        for i, op in enumerate(ops):
            if op == ATOM:
                k = position.get(rhs[i])
                if k is None:
                    raise WellFormednessError(
                        f"indexed atom {lhs[i]}_{rhs[i]} in plain LTL "
                        "evaluation"
                    )
                rhs[i] = k
                free = (k,)
            elif op == CONST:
                free = ()
            else:
                free = frees[lhs[i]]
                if op >= AND and frees[rhs[i]] != free:
                    free = tuple(sorted({*free, *frees[rhs[i]]}))
            frees.append(free)
        getters: dict[tuple, object] = {(): _no_key}
        for free in frees:
            if free not in getters:
                getters[free] = operator.itemgetter(*free)
        self.ops, self.lhs, self.rhs = ops, lhs, rhs
        self.keys = [getters[free] for free in frees]
        self.memos: list[dict] = [{} for _ in ops]
        self.traces = traces
        self.stem_len = stem_len
        self.total = stem_len + loop_len

    def holds(self, assignment: tuple) -> bool:
        """Truth at position 0 with variable k bound to
        traces[assignment[k]]."""
        ops, lhs, rhs, keys, memos = (
            self.ops, self.lhs, self.rhs, self.keys, self.memos
        )
        stem_len, total = self.stem_len, self.total
        full = (1 << total) - 1
        # The successor shift, inlined below as m >> 1 | (last if bit
        # stem_len of m is set): bit i takes bit i+1, and the final
        # position takes the loop start.
        last = 1 << (total - 1)
        masks: dict[int, int] = {}  # row -> mask under this assignment
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i < 0:
                # every operand of row ~i is in masks by now
                i = ~i
                key = stack.pop()
                op = ops[i]
                a = masks[lhs[i]]
                if op == NOT:
                    m = a ^ full
                elif op == NEXT:
                    m = a >> 1 | (last if a >> stem_len & 1 else 0)
                elif op == AND:
                    m = a & masks[rhs[i]]
                elif op == OR:
                    m = a | masks[rhs[i]]
                else:
                    # a R b is !(!a U !b): one least fixpoint serves both
                    b = masks[rhs[i]]
                    if op == RELEASE:
                        a, b = a ^ full, b ^ full
                    m = b
                    while True:
                        step = b | (a & (m >> 1 | (
                            last if m >> stem_len & 1 else 0)))
                        if step == m:
                            break
                        m = step
                    if op == RELEASE:
                        m ^= full
                memos[i][key] = masks[i] = m
                continue
            if i in masks:
                continue
            key = keys[i](assignment)
            m = memos[i].get(key)
            if m is None:
                op = ops[i]
                if op == ATOM:
                    m = _atom_mask(
                        lhs[i], self.traces[assignment[rhs[i]]], total
                    )
                    memos[i][key] = m
                elif op == CONST:
                    m = full if lhs[i] else 0
                else:
                    stack += (key, ~i)
                    if op >= AND:
                        stack.append(rhs[i])
                    stack.append(lhs[i])
                    continue
            masks[i] = m
        return bool(masks[self.root] & 1)


def _atom_mask(name: str, trace: UltimatelyPeriodicTrace, total: int) -> int:
    m = 0
    for i in range(total):
        if name in trace.valuation_at(i):
            m |= 1 << i
    return m


def evaluate_ltl(trace: UltimatelyPeriodicTrace, formula: Formula) -> bool:
    """Truth of a desugared plain LTL formula at position 0 of the trace:
    the kernel with the one unindexed variable bound to the trace."""
    stem_len, loop_len = len(trace.stem), len(trace.loop)
    return _Kernel(formula, (None,), [trace], stem_len, loop_len).holds((0,))


def evaluate_hyperltl(
    trace_set: TraceSet,
    formula: HyperFormula,
    period_guard: int = DEFAULT_PERIOD_GUARD,
) -> bool:
    """Truth of a closed formula over a finite trace set.

    Quantifiers are expanded by exhaustive enumeration of the trace set.
    Each fully quantified body is evaluated on the joint lasso of the
    assigned traces: stem length is the maximum of the stems, loop length
    the lcm of the loops.  Raises ResourceLimit if that lcm grows past
    period_guard, and ValueError if period_guard is below 1.
    """
    if period_guard < 1:
        raise ValueError("limits must be at least 1")
    syntax.check_well_formed(formula)
    body = syntax.desugar(formula.body)
    traces = trace_set.sorted()

    if not formula.prefix:
        if len(traces) != 1:
            raise ValueError(
                "an unquantified formula needs a single-trace model"
            )
        return evaluate_ltl(traces[0], body)

    # One product lasso covers every assignment: its stem is the longest
    # stem in the set and its loop length the lcm of all loops, so each
    # trace is periodic within it.
    stem_len = max(len(t.stem) for t in traces)
    loop_len = 1
    for t in traces:
        loop_len = math.lcm(loop_len, len(t.loop))
        if loop_len > period_guard:
            raise ResourceLimit("period", loop_len, period_guard)
    variables = tuple(var for _, var in formula.prefix)
    kernel = _Kernel(body, variables, traces, stem_len, loop_len)
    choices = range(len(traces))

    def expand(k: int, assignment: tuple) -> bool:
        if k == len(formula.prefix):
            return kernel.holds(assignment)
        branches = (expand(k + 1, assignment + (t,)) for t in choices)
        if formula.prefix[k][0] == EXISTS:
            return any(branches)
        return all(branches)

    return expand(0, ())


# ---------------------------------------------------------------------------
# Text format: one trace per line, stem valuations, '|', loop valuations.
# Example: {a,b} {a} | {b} {}


def format_trace(t: UltimatelyPeriodicTrace) -> str:
    def block(v: frozenset[str]) -> str:
        return "{" + ",".join(sorted(v)) + "}"

    stem = " ".join(block(v) for v in t.stem)
    loop = " ".join(block(v) for v in t.loop)
    return f"{stem} | {loop}" if stem else f"| {loop}"


def parse_trace(line: str) -> UltimatelyPeriodicTrace:
    if line.count("|") != 1:
        raise ParseError(0, "a trace needs exactly one '|' separator")
    stem_text, loop_text = line.split("|")
    stem = tuple(_parse_valuations(stem_text))
    loop = tuple(_parse_valuations(loop_text))
    if not loop:
        raise ParseError(0, "a trace needs a non-empty loop")
    return UltimatelyPeriodicTrace(stem, loop)


def _parse_valuations(text: str) -> list[frozenset[str]]:
    out = []
    for part in text.split():
        if not (part.startswith("{") and part.endswith("}")):
            raise ParseError(0, f"expected a {{...}} valuation, found {part!r}")
        inner = part[1:-1]
        names = [n for n in inner.split(",") if n]
        for n in names:
            ok = (n[0].isalpha() or n[0] == "_") and all(
                c.isalnum() or c in "_@" for c in n
            )
            if not ok:
                raise ParseError(0, f"bad proposition name {n!r}")
        out.append(frozenset(names))
    return out


def format_trace_set(ts: TraceSet) -> str:
    return "\n".join(format_trace(t) for t in ts.sorted())


def parse_trace_set(text: str) -> TraceSet:
    traces = [parse_trace(line) for line in text.splitlines() if line.strip()]
    if not traces:
        raise ParseError(0, "empty trace set")
    return TraceSet(frozenset(traces))
