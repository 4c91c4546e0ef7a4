"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's evaluation and automaton
code paths: truth is computed by direct recursion on the semantic clauses,
satisfiability by enumerating small lassos outright, the reference
tableau on plain sets of formulas, its witness lasso by mutual
reachability and path search, and the reference parser by recursive
descent.  Slow, obviously correct, and kept separate so the two routes
can disagree loudly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import deque
from typing import NamedTuple

from hypersat.errors import ParseError, WellFormednessError
from hypersat.models import UltimatelyPeriodicTrace
from hypersat.syntax import (
    EXISTS,
    FALSE,
    FORALL,
    RESERVED,
    TRUE,
    And,
    Atom,
    Const,
    Eventually,
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
    _ARITY,
    _INFIX,
    _PREFIX,
    check_well_formed,
    desugar,
)


# ---------------------------------------------------------------------------
# The node types as plain frozen dataclasses, with no slots and no hash of
# their own: the surface (fields, repr, match, equality, freezing) that the
# library's node types must keep.  Keyed by the library type they mirror.


def _plain(name: str, *names: str, **defaults):
    return dataclasses.make_dataclass(
        name,
        [(n, object, dataclasses.field(default=defaults[n]))
         if n in defaults else (n, object) for n in names],
        frozen=True,
    )


PLAIN_NODES = {
    Atom: _plain("Atom", "name", "trace", trace=None),
    Const: _plain("Const", "value"),
    Not: _plain("Not", "operand"),
    Next: _plain("Next", "operand"),
    Eventually: _plain("Eventually", "operand"),
    Globally: _plain("Globally", "operand"),
    And: _plain("And", "left", "right"),
    Or: _plain("Or", "left", "right"),
    Implies: _plain("Implies", "left", "right"),
    Iff: _plain("Iff", "left", "right"),
    Until: _plain("Until", "left", "right"),
    Release: _plain("Release", "left", "right"),
    WeakUntil: _plain("WeakUntil", "left", "right"),
}


def plain_copy(formula: Formula):
    """The formula rebuilt from PLAIN_NODES, by recursion."""
    plain = PLAIN_NODES[type(formula)]
    if _ARITY[type(formula)] == 0:
        return plain(*(getattr(formula, f.name)
                       for f in dataclasses.fields(plain)))
    return plain(*(plain_copy(getattr(formula, f.name))
                   for f in dataclasses.fields(plain)))


def make_trace(stem, loop) -> UltimatelyPeriodicTrace:
    """The trace of a stem and a loop of valuations, each an iterable of
    proposition names."""
    return UltimatelyPeriodicTrace(
        tuple(map(frozenset, stem)), tuple(map(frozenset, loop))
    )


def canonical_trace(trace: UltimatelyPeriodicTrace) -> UltimatelyPeriodicTrace:
    """The shortest-stem, shortest-loop representation of the same word."""
    loop = list(trace.loop)
    for d in range(1, len(loop) + 1):
        if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
            loop = loop[:d]
            break
    stem = list(trace.stem)
    while stem and stem[-1] == loop[-1]:
        stem.pop()
        loop = [loop[-1]] + loop[:-1]
    return UltimatelyPeriodicTrace(tuple(stem), tuple(loop))


def zip_traces(traces: list) -> UltimatelyPeriodicTrace:
    """Traces t_1..t_n merged positionwise into one over the alphabet that
    zip_exists makes: its valuation at j holds 'a@i' for each proposition
    a of t_i[j].  The inverse of reductions.project."""
    stem_len = max(len(t.stem) for t in traces)
    loop_len = math.lcm(*(len(t.loop) for t in traces))
    joint = [
        frozenset(
            f"{name}@{i}"
            for i, t in enumerate(traces, start=1)
            for name in t.valuation_at(j)
        )
        for j in range(stem_len + loop_len)
    ]
    return UltimatelyPeriodicTrace(
        tuple(joint[:stem_len]), tuple(joint[stem_len:])
    )


def trace_tail(trace: UltimatelyPeriodicTrace) -> UltimatelyPeriodicTrace:
    """The suffix of a trace from position 1 on."""
    if trace.stem:
        return UltimatelyPeriodicTrace(trace.stem[1:], trace.loop)
    return UltimatelyPeriodicTrace((), trace.loop[1:] + trace.loop[:1])


def naive_eval(trace: UltimatelyPeriodicTrace, formula: Formula, pos: int = 0) -> bool:
    """Straightforward recursion on the semantic clauses.  Until and
    Release scan positions up to |stem| + 2*|loop| ahead, which covers a
    full extra period past any reachable loop point."""
    formula = desugar(formula)
    stem, loop = len(trace.stem), len(trace.loop)

    def norm(i: int) -> int:
        if i < stem:
            return i
        return stem + (i - stem) % loop

    memo: dict[tuple, bool] = {}

    def truth(f: Formula, i: int) -> bool:
        i = norm(i)
        key = (id(f), i)
        if key in memo:
            return memo[key]
        match f:
            case Atom(name, _):
                out = name in trace.valuation_at(i)
            case Const(value):
                out = value
            case Not(e):
                out = not truth(e, i)
            case And(a, b):
                out = truth(a, i) and truth(b, i)
            case Or(a, b):
                out = truth(a, i) or truth(b, i)
            case Next(e):
                out = truth(e, i + 1)
            case Until(a, b):
                out = False
                for k in range(i, stem + 2 * loop):
                    if truth(b, k):
                        out = True
                        break
                    if not truth(a, k):
                        break
            case Release(a, b):
                out = True
                for k in range(i, stem + 2 * loop):
                    if not truth(b, k):
                        out = False
                        break
                    if truth(a, k):
                        break
            case _:
                raise TypeError(f"unexpected node {f!r}")
        memo[key] = out
        return out

    return truth(formula, pos)


def all_valuations(props: tuple[str, ...]) -> list[frozenset[str]]:
    out = []
    for bits in itertools.product((False, True), repeat=len(props)):
        out.append(frozenset(p for p, b in zip(props, bits) if b))
    return out


def enumerate_lassos(props: tuple[str, ...], max_stem: int, max_loop: int):
    """Every lasso over the full valuation alphabet with the given bounds,
    in a fixed order."""
    vals = all_valuations(props)
    for stem_len in range(max_stem + 1):
        for loop_len in range(1, max_loop + 1):
            for stem in itertools.product(vals, repeat=stem_len):
                for loop in itertools.product(vals, repeat=loop_len):
                    yield UltimatelyPeriodicTrace(tuple(stem), tuple(loop))


def bounded_lasso_sat(
    formula: Formula, props: tuple[str, ...], max_stem: int, max_loop: int
) -> UltimatelyPeriodicTrace | None:
    """First lasso within the bounds satisfying the formula, by exhaustive
    search with the naive evaluator."""
    for lasso in enumerate_lassos(props, max_stem, max_loop):
        if naive_eval(lasso, formula):
            return lasso
    return None


def naive_eval_hyper(traces_by_var: dict, formula_body: Formula) -> bool:
    """Recursion over assignments for quantifier-free bodies with indexed
    atoms; positions advance in lockstep across all assigned traces."""
    from math import lcm as _lcm

    body = desugar(formula_body)
    period = 1
    for t in traces_by_var.values():
        period = _lcm(period, len(t.loop))
    max_stem = max(len(t.stem) for t in traces_by_var.values())
    horizon = max_stem + 2 * period

    memo: dict[tuple, bool] = {}

    def truth(f: Formula, i: int) -> bool:
        key = (id(f), i)
        if key in memo:
            return memo[key]
        match f:
            case Atom(name, var):
                out = name in traces_by_var[var].valuation_at(i)
            case Const(value):
                out = value
            case Not(e):
                out = not truth(e, i)
            case And(a, b):
                out = truth(a, i) and truth(b, i)
            case Or(a, b):
                out = truth(a, i) or truth(b, i)
            case Next(e):
                out = truth(e, i + 1)
            case Until(a, b):
                out = False
                for k in range(i, i + horizon):
                    if truth(b, k):
                        out = True
                        break
                    if not truth(a, k):
                        break
            case Release(a, b):
                out = True
                for k in range(i, i + horizon):
                    if not truth(b, k):
                        out = False
                        break
                    if truth(a, k):
                        break
            case _:
                raise TypeError(f"unexpected node {f!r}")
        memo[key] = out
        return out

    return truth(body, 0)


def naive_holds(traces, formula) -> bool:
    """A quantified formula over an explicit list of traces: the prefix is
    expanded into every assignment, each body checked by naive_eval_hyper."""

    def holds(k: int, env: dict) -> bool:
        if k == len(formula.prefix):
            return naive_eval_hyper(env, formula.body)
        quant, var = formula.prefix[k]
        branches = (holds(k + 1, {**env, var: t}) for t in traces)
        return any(branches) if quant == EXISTS else all(branches)

    return holds(0, {})


# ---------------------------------------------------------------------------
# Reference tableau: the set-based construction the bitmask engine in
# hypersat.ltl_engine must reproduce exactly, order included.

_RANKS = {
    Atom: 0, Const: 1, Not: 2, Next: 3, And: 4, Or: 5, Until: 6, Release: 7
}


@functools.cache
def sort_key(formula: Formula):
    """The canonical total order on formulas, as a nested key (memoized:
    the reference tableau asks for the same keys over and over)."""
    match formula:
        case Atom(name, trace):
            return (0, name, trace or "")
        case Const(value):
            return (1, value)
        case Not(e) | Next(e):
            return (_RANKS[type(formula)], sort_key(e))
        case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
            return (_RANKS[type(formula)], sort_key(a), sort_key(b))
        case _:
            raise TypeError(f"unexpected node {formula!r}")


def _state_key(state: frozenset):
    return tuple(sorted(sort_key(f) for f in state))


def _expansions(f: Formula) -> list[set]:
    match f:
        case Atom() | Const(True) | Not() | Next():
            return [set()]
        case Const(False):
            return []
        case And(a, b):
            return [{a, b}]
        case Or(a, b):
            return [{a}, {b}]
        case Until(a, b):
            return [{b}, {a}]
        case Release(a, b):
            return [{a, b}, {b}]
    raise TypeError(f"unexpected node {f!r}")


def _consistent(members: frozenset) -> bool:
    return Const(False) not in members and not any(
        isinstance(f, Not) and f.operand in members for f in members
    )


def _saturate(seed) -> tuple[frozenset, ...]:
    results = set()
    start = (frozenset(seed), frozenset(seed))
    seen = {start}
    stack = [start]
    while stack:
        members, pending = stack.pop()
        if not _consistent(members):
            continue
        if not pending:
            results.add(members)
            continue
        f = min(pending, key=sort_key)
        for addition in _expansions(f):
            item = (members | addition, pending - {f} | (addition - members))
            if item not in seen:
                seen.add(item)
                stack.append(item)
    return tuple(sorted(results, key=_state_key))


def _next_obligations(state: frozenset) -> set:
    out = set()
    for f in state:
        match f:
            case Next(e):
                out.add(e)
            case Until(_, b) if b not in state:
                out.add(f)
            case Release(a, _) if a not in state:
                out.add(f)
    return out


def _subformulas(f: Formula):
    yield f
    match f:
        case Not(e) | Next(e):
            yield from _subformulas(e)
        case And(a, b) | Or(a, b) | Until(a, b) | Release(a, b):
            yield from _subformulas(a)
            yield from _subformulas(b)


class FormulaSets(NamedTuple):
    """An automaton with every state spelled out as the frozenset of its
    closure formulas, states in canonical order, and the names of the
    atoms its states hold, sorted."""

    states: tuple[frozenset, ...]
    initial: tuple[frozenset, ...]
    transitions: dict
    acceptance: tuple[frozenset, ...]
    alphabet: tuple[str, ...]


def closure(formula) -> list:
    """The distinct subformulas of a desugared NNF formula, or of a
    HyperFormula's body, in the canonical order: the formula each bit of
    the engine's states stands for."""
    if isinstance(formula, HyperFormula):
        formula = formula.body
    return sorted(set(_subformulas(formula)), key=sort_key)


def closure_keys(formula: Formula) -> list:
    """The sort_key of each distinct subformula of a desugared NNF formula,
    in the canonical order: closure(formula) as keys, made by one fold
    over the formula as a tree that hashes no formula, so the keys stay
    right, and cheap, when formula hashing is broken."""
    keys = set()

    def keep(key):
        keys.add(key)
        return key

    def leaf(f):
        if type(f) is Atom:
            return keep((0, f.name, f.trace or ""))
        return keep((1, f.value))

    build = {
        t: lambda *operands, rank=rank: keep((rank, *operands))
        for t, rank in _RANKS.items() if _ARITY[t]
    }
    reference_fold(*reference_listing(formula, leaf), build)
    return sorted(keys)


def formula_sets(aut, formula) -> FormulaSets:
    """The engine's GeneralizedBuchiAutomaton of the formula with each
    state as its set of closure formulas, read from its states' bitmasks
    over the closure spelled here, so the engine's closure order is
    checked, not trusted."""
    formulas = closure(formula)
    assert len(aut.names) == len(formulas)
    sets = [
        frozenset(f for i, f in enumerate(formulas) if mask >> i & 1)
        for mask in aut.states
    ]

    def spelled(states):
        return tuple(sets[i] for i in states)

    held = 0  # the atoms some state holds
    for mask in aut.states:
        held |= mask & aut.atoms
    alphabet = {f.name for i, f in enumerate(formulas) if held >> i & 1}
    return FormulaSets(
        tuple(sets),
        spelled(aut.initial),
        {sets[i]: spelled(succs) for i, succs in aut.transitions.items()},
        tuple(frozenset(spelled(acc)) for acc in aut.acceptance),
        tuple(sorted(alphabet)),
    )


def reference_automaton(formula: Formula) -> FormulaSets:
    """The tableau automaton of a desugared NNF formula, built on sets of
    formulas with every choice ordered by sort_key."""
    initial = _saturate({formula})
    transitions = {}
    queue = deque(initial)
    seen = set(initial)
    while queue:
        state = queue.popleft()
        transitions[state] = _saturate(_next_obligations(state))
        for nxt in transitions[state]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    states = tuple(sorted(seen, key=_state_key))
    untils = sorted(
        {f for f in _subformulas(formula) if isinstance(f, Until)},
        key=sort_key,
    )
    acceptance = tuple(
        frozenset(s for s in states if u not in s or u.right in s)
        for u in untils
    )
    alphabet = tuple(
        sorted({f.name for s in states for f in s if isinstance(f, Atom)})
    )
    return FormulaSets(states, initial, transitions, acceptance, alphabet)


def emerson_lei_nonempty(aut: FormulaSets) -> bool:
    """Generalized Buchi nonemptiness by the Emerson-Lei nested fixpoint

        Z = nu Z. AND over acceptance sets F of  EX E[Z U (Z & F)]

    Z is the set of states that start a run through every acceptance set
    infinitely often (with no acceptance sets: any infinite run).  No SCCs
    and no lasso search, so it shares nothing with check_emptiness."""
    succs = aut.transitions
    everything = frozenset(aut.states)
    fairness = aut.acceptance or (everything,)

    def ex(target: set) -> set:
        return {s for s in everything if not target.isdisjoint(succs[s])}

    z = set(everything)
    while True:
        new = set(z)
        for f in fairness:
            y = z & f  # least fixpoint of E[Z U (Z & F)]
            while True:
                grown = y | (ex(y) & z)
                if grown == y:
                    break
                y = grown
            new &= ex(y)
        if new == z:
            return not z.isdisjoint(aut.initial)
        z = new


def _reachable(succs: dict, state) -> set:
    """The states reachable from a state in one step or more."""
    seen = set()
    frontier = list(succs[state])
    while frontier:
        s = frontier.pop()
        if s not in seen:
            seen.add(s)
            frontier += succs[s]
    return seen


def _shortest_path(succs: dict, starts, goal, inside: set, allow_empty):
    """The first shortest path from the starts to a goal state through
    states inside: paths grow one layer at a time, each layer's paths in
    order and each path's successors in the order given, and a state is
    reached once.  With allow_empty, a start that is a goal is a path of
    its own, the first such start."""
    if allow_empty:
        for s in starts:
            if goal(s):
                return [s]
    layer = [[s] for s in starts]
    reached = set(starts)
    while layer:
        grown = []
        for path in layer:
            for s in succs[path[-1]]:
                if s not in inside:
                    continue
                if goal(s):
                    return path + [s]
                if s not in reached:
                    reached.add(s)
                    grown.append(path + [s])
        layer = grown
    raise AssertionError("no goal state reachable")


def reference_lasso(aut: FormulaSets) -> UltimatelyPeriodicTrace | None:
    """The witness lasso the engine must pick, or None for an empty
    language, by the engine's rules on a set-based automaton: components
    by mutual reachability; of the cyclic ones that meet every acceptance
    set, the one holding the least state in canonical order; the first
    shortest stem from the initial states into it; then from its entry a
    first shortest path into each acceptance set the cycle has not met
    yet, in order, and back to the entry, all inside the component.  It
    uses no SCC algorithm and no code of check_emptiness."""
    succs = aut.transitions
    reach = {s: _reachable(succs, s) for s in aut.states}
    target = None
    for s in aut.states:  # canonical order: the least state first
        component = {t for t in reach[s] if s in reach[t]}
        if s in component and all(not acc.isdisjoint(component)
                                  for acc in aut.acceptance):
            target = component
            break
    if target is None:
        return None
    stem = _shortest_path(succs, aut.initial, target.__contains__,
                          set(aut.states), True)
    entry = stem[-1]
    cycle = [entry]
    for acc in aut.acceptance:
        if acc.isdisjoint(cycle):
            cycle += _shortest_path(succs, [cycle[-1]], acc.__contains__,
                                    target, False)[1:]
    cycle += _shortest_path(succs, [cycle[-1]], entry.__eq__, target,
                            len(cycle) > 1)[1:]

    def valuation(state):
        return frozenset(f.name for f in state if isinstance(f, Atom))

    return UltimatelyPeriodicTrace(
        tuple(valuation(s) for s in stem[:-1]),
        tuple(valuation(s) for s in cycle[:-1]),
    )


# ---------------------------------------------------------------------------
# Reference parser: the recursive-descent parser and character-by-character
# tokenizer that hypersat.syntax.parse_hyperltl must agree with exactly,
# errors included.  Recursion limits its inputs to shallow formulas.

_SYMBOLS = (
    ("<->", "IFF"),
    ("->", "IMPLIES"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("!", "NOT"),
    ("&", "AND"),
    ("|", "OR"),
    (".", "DOT"),
)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, i))
                i += len(sym)
                break
        else:
            if _is_ident_start(c):
                j = i + 1
                while j < n and _is_ident_char(text[j]):
                    j += 1
                tokens.append(("IDENT", text[i:j], i))
                i = j
            else:
                raise ParseError(i, f"unexpected character {c!r}")
    tokens.append(("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Precedence, tightest first:  ! X F G  >  U W R (right)  >  &  >  |
# >  -> (right)  >  <-> (right).  U, W and R share one level.
# Quantifiers are only legal in the prefix; the names in RESERVED are
# keywords and cannot be used as propositions or trace variables.


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], bound: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.bound = bound

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {kind}, found {tok[1]!r}")
        return self.advance()

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek()[0] == "IFF":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "IMPLIES":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek()[0] == "OR":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_temporal()
        while self.peek()[0] == "AND":
            self.advance()
            left = And(left, self.parse_temporal())
        return left

    def parse_temporal(self) -> Formula:
        left = self.parse_unary()
        kind, text, _ = self.peek()
        if kind == "IDENT" and text in ("U", "W", "R"):
            self.advance()
            right = self.parse_temporal()
            if text == "U":
                return Until(left, right)
            if text == "W":
                return WeakUntil(left, right)
            return Release(left, right)
        return left

    def parse_unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if kind == "IDENT" and text in ("X", "F", "G"):
            self.advance()
            operand = self.parse_unary()
            if text == "X":
                return Next(operand)
            if text == "F":
                return Eventually(operand)
            return Globally(operand)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "LPAREN":
            inner = self.parse_formula()
            self.expect("RPAREN")
            return inner
        if kind != "IDENT":
            raise ParseError(pos, f"expected a formula, found {text!r}")
        if text in (FORALL, EXISTS):
            raise WellFormednessError(
                "quantifiers must form a prefix; found one inside the body"
            )
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if text in RESERVED:
            raise ParseError(pos, f"{text!r} is a keyword, not a proposition")
        return self._make_atom(text)

    def _make_atom(self, text: str) -> Atom:
        # name_var is an indexed atom only when var is bound in the prefix;
        # split points are tried right to left so names may contain '_'.
        cut = len(text)
        while True:
            cut = text.rfind("_", 0, cut)
            if cut < 0:
                break
            if text[cut + 1 :] in self.bound and cut > 0:
                return Atom(text[:cut], text[cut + 1 :])
        return Atom(text)


def reference_parse(text: str) -> HyperFormula:
    """Parse a formula; raises ParseError or WellFormednessError."""
    tokens = reference_tokenize(text)
    prefix = []
    seen = set()
    pos = 0
    while tokens[pos][0] == "IDENT" and tokens[pos][1] in (FORALL, EXISTS):
        quant = tokens[pos][1]
        pos += 1
        kind, var, at = tokens[pos]
        if kind != "IDENT" or var in RESERVED:
            raise ParseError(at, f"expected a trace variable, found {var!r}")
        if var in seen:
            raise WellFormednessError(f"duplicate trace variable {var!r}")
        seen.add(var)
        pos += 1
        if tokens[pos][0] != "DOT":
            raise ParseError(tokens[pos][2], "expected '.' after trace variable")
        pos += 1
        prefix.append((quant, var))

    parser = _Parser(tokens, tuple(var for _, var in prefix))
    parser.pos = pos
    body = parser.parse_formula()
    kind, text_, at = parser.peek()
    if kind != "EOF":
        raise ParseError(at, f"unexpected trailing input {text_!r}")

    formula = HyperFormula(tuple(prefix), body)
    check_well_formed(formula)
    return formula


# ---------------------------------------------------------------------------
# A two-phase walk whose listing holds node types and whose fold rebuilds
# every compound node, so it shares no node-keeping logic with the library's
# fold.  The reference renderer, NNF and desugaring fold with it.


def reference_listing(formula: Formula, leaf=lambda f: f) -> tuple[list, list]:
    """The type of every node in pre-order, and leaf(node) for each leaf,
    left to right."""
    kinds = []
    leaves = []
    stack = [formula]
    while stack:
        f = stack.pop()
        t = type(f)
        arity = _ARITY[t]
        kinds.append(t)
        if arity == 2:
            stack += (f.right, f.left)
        elif arity:
            stack.append(f.operand)
        else:
            leaves.append(leaf(f))
    return kinds, leaves


def reference_fold(kinds: list, leaves: list, build: dict):
    """Fold a type listing bottom-up, calling build[type] on every compound
    node's operand values."""
    values = []
    for t in reversed(kinds):
        arity = _ARITY[t]
        if not arity:
            values.append(leaves.pop())
        elif arity == 1:
            values[-1] = build[t](values[-1])
        else:
            left = values.pop()
            values[-1] = build[t](left, values[-1])
    return values[0]


_REFERENCE_DESUGAR = {t: t for t, arity in _ARITY.items() if arity} | {
    Implies: lambda a, b: Or(Not(a), b),
    Iff: lambda a, b: And(Or(Not(a), b), Or(Not(b), a)),
    WeakUntil: lambda a, b: Or(Until(a, b), Release(FALSE, a)),
    Eventually: lambda e: Until(TRUE, e),
    Globally: lambda e: Release(FALSE, e),
}


def reference_desugar(formula: Formula) -> Formula:
    """F, G, W, -> and <-> rewritten into the core connectives, every node
    built afresh."""
    return reference_fold(*reference_listing(formula), _REFERENCE_DESUGAR)


# ---------------------------------------------------------------------------
# Reference renderer: the fold that hypersat.syntax.render must match byte
# for byte.  Each fold step copies its operands' strings, so it is
# quadratic in depth.

_REFERENCE_RENDER = {
    t: ("(" + op + " {})").format for op, t in _PREFIX.items()
} | {t: ("({} " + op + " {})").format for op, (_, _, t) in _INFIX.items()}


def _render_leaf(leaf: Formula) -> str:
    if type(leaf) is Const:
        return "true" if leaf.value else "false"
    return leaf.name if leaf.trace is None else f"{leaf.name}_{leaf.trace}"


def reference_render(formula) -> str:
    if isinstance(formula, HyperFormula):
        head = "".join(f"{q} {v}. " for q, v in formula.prefix)
        return head + reference_render(formula.body)
    return reference_fold(
        *reference_listing(formula, _render_leaf), _REFERENCE_RENDER
    )


# ---------------------------------------------------------------------------
# Reference negation normal form: one listing that carries each node's
# polarity, folded into a fresh tree with no sharing.

_REFERENCE_DUAL = {And: Or, Or: And, Until: Release, Release: Until, Next: Next}


def reference_nnf(formula: Formula) -> Formula:
    """Push negations to the atoms of a desugared formula: a Not flips the
    polarity and drops out, and a negated connective is listed as its
    dual."""
    kinds = []
    leaves = []
    stack = [(formula, False)]
    while stack:
        f, negated = stack.pop()
        t = type(f)
        if t is Not:
            stack.append((f.operand, not negated))
        elif t is Atom:
            kinds.append(t)
            leaves.append(Not(f) if negated else f)
        elif t is Const:
            kinds.append(t)
            leaves.append(Const(f.value != negated))
        elif t in _REFERENCE_DUAL:
            kinds.append(_REFERENCE_DUAL[t] if negated else t)
            if t is Next:
                stack.append((f.operand, negated))
            else:
                stack += ((f.right, negated), (f.left, negated))
        else:
            raise TypeError(f"unexpected node {f!r}")
    return reference_fold(kinds, leaves, {t: t for t in _REFERENCE_DUAL})


# ---------------------------------------------------------------------------
# Atom maps on trees, every node built afresh: a shared formula costs its
# size as a tree.

_REBUILD = {t: t for t, arity in _ARITY.items() if arity}


def map_atoms(formula: Formula, fn) -> Formula:
    """The formula with every atom replaced by fn(atom)."""
    def leaf(f):
        return fn(f) if type(f) is Atom else f

    return reference_fold(*reference_listing(formula, leaf), _REBUILD)


def rename_trace_variable(formula: Formula, old: str, new: str) -> Formula:
    return map_atoms(
        formula, lambda a: Atom(a.name, new) if a.trace == old else a
    )


# ---------------------------------------------------------------------------
# Reference unrolling of an exists-forall formula, on trees: one copy of the
# body per assignment by map_atoms, flattened, deduplicated and conjoined.


def reference_unroll(formula: HyperFormula) -> Formula:
    """The body unroll_universals must make: for every assignment of
    existential variables to the universal ones, the first universal
    cycling fastest, the body with each universal atom's variable
    replaced; each copy's conjuncts, left to right, in assignment order,
    with only the first of equal conjuncts kept, conjoined to the left."""
    exist_vars = [v for q, v in formula.prefix if q == EXISTS]
    univ_vars = [v for q, v in formula.prefix if q == FORALL]
    parts: list[Formula] = []
    for raw in itertools.product(exist_vars, repeat=len(univ_vars)):
        target = dict(zip(univ_vars, reversed(raw)))
        copy = map_atoms(
            formula.body,
            lambda a: Atom(a.name, target.get(a.trace, a.trace)),
        )
        stack = [copy]
        while stack:
            f = stack.pop()
            if isinstance(f, And):
                stack += (f.right, f.left)
            elif f not in parts:
                parts.append(f)
    return functools.reduce(And, parts)
