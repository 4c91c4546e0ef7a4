"""Ultimately periodic traces, trace sets, and formula evaluation.

A trace is a finite stem followed by a forever-repeated non-empty loop.
Evaluation computes, per subformula, a truth bitmask over the positions
0 .. |stem|+|loop|-1 of the (joint) lasso; position i+1 wraps back to the
loop start at the end.  One least fixpoint decides every temporal
connective, which is equivalent to scanning positions up to
|stem| + 2*|loop|: truth values are periodic past the stem.

The body is evaluated from `syntax.core_table`'s post-order node table,
one row per distinct subformula, sugar included, not desugared first:
the one syntax.check_well_formed gives, which the formula carries from
the parser or keeps from the gate's one walk, so the evaluator holds no
well-formedness rule of its own.  One
forward pass over the rows computes every row for every assignment of
traces to the prefix variables at once.  A row's value is one int made
of lanes, one lane of |stem|+|loop| bits per assignment; the lane index
spells the assignment in prefix order, the last variable least
significant.  An atom row is its per-trace masks laid out by that index
with repunit multiplications, NOT, AND, OR, -> and <-> are single int
operations, X shifts every lane at once, and U, R, F, G and W share one
least fixpoint over that shift, R, G and W as the complement of a U over
complemented operands.  The quantifiers then fold the root's lanes
innermost first, OR for exists and AND for forall.  Where all the lanes
would span more than LANE_BITS bits, the outermost variables are
enumerated as nested any/all, on a loop rather than by recursion, each
choice a pass over the packed rest, so an early-decided quantifier still
stops early.  Plain LTL evaluation is the one-lane case.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

from . import syntax
from .errors import ParseError, ResourceLimit
from .syntax import (
    AND,
    ATOM,
    CONST,
    EVENTUALLY,
    EXISTS,
    FORALL,
    GLOBALLY,
    IFF,
    IMPLIES,
    NEXT,
    NOT,
    OR,
    RELEASE,
    UNTIL,
    Formula,
    HyperFormula,
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

# The most bits one row value may span.  When the lanes of every assignment
# would not fit, the outermost variables are enumerated and the rest packed.
LANE_BITS = 1 << 16


def _repunit(width: int, count: int) -> int:
    """Bit 0 of each of count lanes that are width bits wide."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


def _trace_masks(trace: UltimatelyPeriodicTrace, total: int) -> dict[str, int]:
    """Each proposition's truth mask over positions 0 .. total-1."""
    masks: dict[str, int] = {}
    for i in range(total):
        for name in trace.valuation_at(i):
            masks[name] = masks.get(name, 0) | 1 << i
    return masks


def _holds(table: tuple, prefix: tuple, traces: list, guard: float) -> bool:
    """Truth of a body, given as its core table, at position 0 under the
    quantifier prefix, every variable ranging over traces, on their joint
    lasso, whose loop may be at most guard long.  The table is only
    read, and well formed: each atom row's trace is a prefix variable."""
    stem_len = max(len(t.stem) for t in traces)
    loop_len = 1
    for t in traces:
        loop_len = math.lcm(loop_len, len(t.loop))
        if loop_len > guard:
            raise ResourceLimit("period", loop_len, guard)
    ops, lhs, rhs, root = table
    n, k = len(traces), len(prefix)
    width = stem_len + loop_len
    outer = 0  # the variables enumerated one trace at a time
    while outer < k and n ** (k - outer) * width > LANE_BITS:
        outer += 1
    lanes = n ** (k - outer)
    ones = _repunit(width, lanes)
    full = (1 << width * lanes) - 1
    keep = ones * ((1 << width - 1) - 1)  # all but each lane's last bit
    last = width - 1

    def succ(m: int) -> int:
        # the successor shift, per lane: bit i takes bit i+1, and the
        # final position takes the loop start
        return m >> 1 & keep | (m >> stem_len & ones) << last

    # Each leaf row's value, by its lhs and rhs: a constant's value and
    # None, an atom's name and trace.  An atom of an enumerated variable
    # has its value per trace instead, and that variable.
    position = {var: v for v, (_, var) in enumerate(prefix)}
    per_trace = [_trace_masks(t, width) for t in traces]
    leaf = {}
    for op, a, b in zip(ops, lhs, rhs):
        if op == CONST:
            leaf[a, b] = full if a else 0
        elif op == ATOM:
            v = position[b]
            masks = [m.get(a, 0) for m in per_trace]
            if v < outer:
                leaf[a, b] = [m * ones for m in masks], v
            else:
                # lane l binds v to trace (l // block) % n
                block = n ** (k - 1 - v)
                run = sum(m << t * block * width for t, m in enumerate(masks))
                leaf[a, b] = run * _repunit(width, block) * _repunit(
                    width * block * n, lanes // (block * n)
                )

    # The enumerated variables nest like any (exists) and all (forall): a
    # variable's value is the first value that decides it, True for
    # exists and False for forall, or else the value at its last trace.
    decides = [quant == EXISTS for quant, _ in prefix]
    chosen = [0] * outer  # the trace of each enumerated variable
    while True:
        values: list[int] = []
        for op, a, b in zip(ops, lhs, rhs):
            if op <= CONST:
                m = leaf[a, b]
                if type(m) is tuple:
                    m = m[0][chosen[m[1]]]
            elif op == NOT:
                m = values[a] ^ full
            elif op == NEXT:
                m = succ(values[a])
            elif op == AND:
                m = values[a] & values[b]
            elif op == OR:
                m = values[a] | values[b]
            elif op == IMPLIES:
                m = values[a] ^ full | values[b]
            elif op == IFF:
                m = values[a] ^ values[b] ^ full
            else:
                # one least fixpoint m = base | grow & X m serves every
                # temporal row: a U b, F a = true U a, and the complements
                # a R b = !(!a U !b), G a = !(true U !a) and
                # a W b = !(!b U (!a & !b))
                a = values[a]
                if op == UNTIL:
                    grow, base, flip = a, values[b], 0
                elif op == EVENTUALLY:
                    grow, base, flip = full, a, 0
                elif op == RELEASE:
                    grow, base, flip = a ^ full, values[b] ^ full, full
                elif op == GLOBALLY:
                    grow, base, flip = full, a ^ full, full
                else:
                    grow = values[b] ^ full
                    base, flip = (a ^ full) & grow, full
                m, step = None, base
                while step != m:
                    m = step
                    step = base | grow & succ(m)
                m ^= flip
            values.append(m)
        # Fold the packed variables innermost first: each group of n
        # neighbouring lanes joins its lane starts into its first.  Only
        # bit 0 is read at the end, so the other bits need no mask.
        m, span = values[root], width
        for v in reversed(range(outer, k)):
            join = operator.or_ if decides[v] else operator.and_
            m = functools.reduce(join, [m >> t * span for t in range(n)])
            span *= n
        value = bool(m & 1)
        v = outer - 1
        while v >= 0 and (chosen[v] == n - 1 or value == decides[v]):
            chosen[v] = 0
            v -= 1
        if v < 0:
            return value
        chosen[v] += 1


def evaluate_ltl(trace: UltimatelyPeriodicTrace, formula: Formula) -> bool:
    """Truth of a plain LTL formula, sugar included, at position 0 of the
    trace: evaluate_hyperltl's empty-prefix case, so an indexed atom fails
    check_well_formed as in any other unquantified formula."""
    return evaluate_hyperltl(
        TraceSet(frozenset({trace})), HyperFormula((), formula)
    )


def evaluate_hyperltl(
    trace_set: TraceSet,
    formula: HyperFormula,
    period_guard: int = DEFAULT_PERIOD_GUARD,
) -> bool:
    """Truth of a closed formula over a finite trace set.

    Every assignment of traces to the prefix variables is evaluated on one
    joint lasso: its stem is the longest stem in the set and its loop
    length the lcm of all loops, so each trace is periodic within it.
    The body's core table, one row per distinct subformula, is the one
    check_well_formed gives: a parsed formula's own, so evaluating it
    walks nothing, or for one built by hand its one walk's, kept.  One pass
    over the rows computes each for all assignments at once, one lane per
    assignment, and the quantifiers fold the root's lanes.  Where the
    lanes would span more than LANE_BITS, the outermost variables are
    enumerated instead, stopping as soon as an exists or forall is
    decided.  Raises ResourceLimit if the lcm grows past period_guard, and
    ValueError if period_guard is below 1.
    """
    if period_guard < 1:
        raise ValueError("limits must be at least 1")
    table = syntax.check_well_formed(formula)
    traces = trace_set.sorted()
    if formula.prefix:
        return _holds(table, formula.prefix, traces, period_guard)
    if len(traces) != 1:
        raise ValueError("an unquantified formula needs a single-trace model")
    return _holds(table, ((FORALL, None),), traces, math.inf)


# ---------------------------------------------------------------------------
# Text format: one trace per line, stem valuations, '|', loop valuations.
# Example: {a,b} {a} | {b} {}


def format_trace(t: UltimatelyPeriodicTrace) -> str:
    def block(v: frozenset[str]) -> str:
        return "{" + ",".join(sorted(v)) + "}"

    stem = " ".join(block(v) for v in t.stem)
    loop = " ".join(block(v) for v in t.loop)
    return f"{stem} | {loop}" if stem else f"| {loop}"


def parse_trace(line: str, at: int = 0) -> UltimatelyPeriodicTrace:
    """A trace from one line; a ParseError counts its position from at,
    the line's offset in the model text."""
    bars = [i for i, c in enumerate(line) if c == "|"]
    if len(bars) != 1:
        # the second '|', or the end of a line without one
        raise ParseError(
            at + (bars[1] if bars else len(line)),
            "a trace needs exactly one '|' separator",
        )
    bar = bars[0]
    stem = tuple(_parse_valuations(line[:bar], at))
    loop = tuple(_parse_valuations(line[bar + 1 :], at + bar + 1))
    if not loop:
        raise ParseError(at + len(line), "a trace needs a non-empty loop")
    return UltimatelyPeriodicTrace(stem, loop)


def _parse_valuations(text: str, at: int) -> list[frozenset[str]]:
    out = []
    for match in re.finditer(r"\S+", text):
        part, start = match.group(), at + match.start()
        if not (part.startswith("{") and part.endswith("}")):
            raise ParseError(
                start, f"expected a {{...}} valuation, found {part!r}"
            )
        names = part[1:-1].split(",")
        start += 1  # the offset of the next name
        for n in names:
            ok = not n or (n[0].isalpha() or n[0] == "_") and all(
                c.isalnum() or c in "_@" for c in n
            )
            if not ok:
                raise ParseError(start, f"bad proposition name {n!r}")
            start += len(n) + 1
        out.append(frozenset(n for n in names if n))
    return out


def parse_trace_set(text: str) -> TraceSet:
    traces = []
    at = 0  # the offset of the line in text
    for line, ended in zip(text.splitlines(), text.splitlines(True)):
        if line.strip():
            traces.append(parse_trace(line, at))
        at += len(ended)
    if not traces:
        raise ParseError(len(text), "empty trace set")
    return TraceSet(frozenset(traces))
