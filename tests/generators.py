"""Seeded random formula and trace generators for the test suite, and one
fixed workload-size correspondence instance."""

from __future__ import annotations

import random

from hypothesis import Phase, settings, strategies as st

from hypersat.models import TraceSet, UltimatelyPeriodicTrace
from hypersat.pcp import PcpInstance
from hypersat.syntax import (
    And,
    Atom,
    Const,
    EXISTS,
    Eventually,
    FORALL,
    Formula,
    Globally,
    HyperFormula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
)

# The seed of a seeded random test, which builds its case from
# random.Random(seed).  A smaller seed is no simpler case, so SEEDED, the
# settings every such test runs under with its own max_examples, drops
# the shrink phase: a failure is reported as first found.
SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
SEEDED = settings(
    deadline=None,
    derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)

UNARY = (Not, Next, Eventually, Globally)
BINARY = (And, Or, Implies, Iff, Until, WeakUntil, Release)


def random_ltl(
    rng: random.Random,
    props: tuple[str, ...],
    depth: int,
    variables: tuple[str, ...] = (),
    allow_const: bool = True,
) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        if allow_const and rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        name = rng.choice(props)
        trace = rng.choice(variables) if variables else None
        return Atom(name, trace)
    if rng.random() < 0.4:
        op = UNARY[rng.randrange(len(UNARY))]
        return op(random_ltl(rng, props, depth - 1, variables, allow_const))
    op = BINARY[rng.randrange(len(BINARY))]
    return op(
        random_ltl(rng, props, depth - 1, variables, allow_const),
        random_ltl(rng, props, depth - 1, variables, allow_const),
    )


def random_quantified(
    rng: random.Random,
    props: tuple[str, ...],
    depth: int,
    n_exists: int,
    n_forall: int,
) -> HyperFormula:
    """A formula with the prefix exists^n forall^m (either count may be 0,
    not both)."""
    prefix = tuple(
        [(EXISTS, f"e{i}") for i in range(1, n_exists + 1)]
        + [(FORALL, f"u{i}") for i in range(1, n_forall + 1)]
    )
    variables = tuple(v for _, v in prefix)
    body = random_ltl(rng, props, depth, variables)
    # make sure every variable occurs so the formula stays well-formed
    for v in variables:
        body = And(body, Or(Atom(props[0], v), Not(Atom(props[0], v))))
    return HyperFormula(prefix, body)


def random_valuation(rng: random.Random, props: tuple[str, ...]) -> frozenset:
    return frozenset(p for p in props if rng.random() < 0.5)


def random_trace(
    rng: random.Random,
    props: tuple[str, ...],
    max_stem: int,
    max_loop: int,
    stem_len: int | None = None,
    loop_len: int | None = None,
) -> UltimatelyPeriodicTrace:
    if stem_len is None:
        stem_len = rng.randrange(max_stem + 1)
    if loop_len is None:
        loop_len = rng.randrange(1, max_loop + 1)
    stem = tuple(random_valuation(rng, props) for _ in range(stem_len))
    loop = tuple(random_valuation(rng, props) for _ in range(loop_len))
    return UltimatelyPeriodicTrace(stem, loop)


def random_trace_set(
    rng: random.Random,
    props: tuple[str, ...],
    count: int,
    max_stem: int,
    max_loop: int,
) -> TraceSet:
    traces = {
        random_trace(rng, props, max_stem, max_loop) for _ in range(count)
    }
    return TraceSet(frozenset(traces))


# Six stones over three letters, solved by 1..6 (abcacbac on both sides).
# Its encoding renders to about 65 KB with parentheses nested 1,179 deep.
SIX_STONES = PcpInstance(
    ("a", "b", "c"),
    (("ab", "a"), ("c", "bc"), ("a", "a"), ("cb", "c"), ("a", "ba"), ("c", "c")),
)
