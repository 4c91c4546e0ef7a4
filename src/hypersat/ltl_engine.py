"""LTL satisfiability via a tableau-built generalized Buchi automaton.

States are saturated, locally consistent obligation sets over the closure
of the input formula.  A transition moves to any saturation of the next-
step obligations.  One acceptance set per Until subformula rules out runs
that postpone an eventuality forever.

The closure is indexed once: each distinct subformula gets one bit, and
bits are numbered in the canonical formula order, so the tableau runs on
int bitmasks and ascending bit order is formula order.  Every choice below
iterates in that order, so identical inputs yield identical automata and
witnesses across processes.  The finished automaton hands its states out
as frozensets of closure formulas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .models import UltimatelyPeriodicTrace
from .syntax import (
    And,
    Atom,
    Const,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Until,
    _atoms,
    desugar,
    to_nnf,
)

State = frozenset

# Node ranks of the canonical order (see _index).
_RANKS = {
    Atom: 0, Const: 1, Not: 2, Next: 3, And: 4, Or: 5, Until: 6, Release: 7
}


def _bits(mask: int) -> tuple[int, ...]:
    """Set-bit indices of a mask, ascending: a state's canonical key."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _index(formula: Formula):
    """The distinct subformulas of a desugared NNF formula in canonical
    order, with each one's operand positions.

    One iterative walk hash-conses the nodes by (rank, operand ids), so no
    recursive hash or equality runs on deep formulas.  The canonical order
    compares rank first, then leaves by payload and compound nodes by
    their operands, left to right.  Each node is sorted by its pre-order
    token string: one byte of rank per node, and after a leaf's rank its
    four-byte position among the sorted leaves.  The rank fixes each
    token's length and arity, so the strings are prefix-free and sort
    exactly like the nested key."""
    ids: dict[int, int] = {}  # id(node) -> hash-consed id
    by_sig: dict[tuple, int] = {}
    nodes: list[Formula] = []
    ranks: list[int] = []
    operands: list[tuple[int, ...]] = []
    leaves: dict[int, tuple] = {}  # hash-consed id -> leaf sort key
    stack = [formula]
    while stack:
        f = stack[-1]
        if id(f) in ids:
            stack.pop()
            continue
        match f:
            case Atom(name, trace):
                sig = (0, name, trace)
                leaf = (0, name, trace or "")
            case Const(value):
                sig = leaf = (1, value)
            case Not(Atom()) | Next() | And() | Or() | Until() | Release():
                if isinstance(f, (Not, Next)):
                    kids = (f.operand,)
                else:
                    kids = (f.left, f.right)
                missing = [k for k in kids if id(k) not in ids]
                if missing:
                    stack.extend(reversed(missing))
                    continue
                sig = (_RANKS[type(f)], *(ids[id(k)] for k in kids))
                leaf = None
            case _:
                raise ValueError(
                    f"automaton construction needs a desugared NNF formula, "
                    f"found {f!r}"
                )
        stack.pop()
        known = by_sig.get(sig)
        if known is None:
            known = by_sig[sig] = len(nodes)
            nodes.append(f)
            ranks.append(sig[0])
            if leaf is None:
                operands.append(sig[1:])
            else:
                operands.append(())
                leaves[known] = leaf
        ids[id(f)] = known
    leaf_code = {
        n: i.to_bytes(4, "big")
        for i, n in enumerate(sorted(leaves, key=leaves.__getitem__))
    }
    tokens: list[bytes] = []  # operands precede their parents in nodes
    for n, parts in enumerate(operands):
        head = bytes((ranks[n],))
        if parts:
            tokens.append(head + b"".join([tokens[p] for p in parts]))
        else:
            tokens.append(head + leaf_code[n])
    order = sorted(range(len(nodes)), key=tokens.__getitem__)
    position = [0] * len(nodes)
    for pos, node in enumerate(order):
        position[node] = pos
    return (
        [nodes[n] for n in order],
        [tuple(position[p] for p in operands[n]) for n in order],
        position[ids[id(formula)]],
    )


class _Tableau:
    """Per-bit tables over the indexed closure, and saturation on ints."""

    def __init__(self, formula: Formula):
        self.nodes, operands, root = _index(formula)
        self.root = 1 << root
        n = len(self.nodes)
        # branch alternatives for satisfying a bit at the current position
        self.expansions: list[tuple[int, ...]] = [(0,)] * n
        # bits that contradict a bit: the complementary literal, or FALSE
        self.clash = [0] * n
        # next-step obligation of a temporal bit, and the bit discharging it
        self.step = [0] * n
        self.guard = [0] * n
        self.temporal = 0
        self.literals = 0
        self.atoms = 0
        self.untils: list[tuple[int, int]] = []
        for i, (f, parts) in enumerate(zip(self.nodes, operands)):
            kids = [1 << p for p in parts]
            match f:
                case Atom():
                    self.atoms |= 1 << i
                case Const(False):
                    self.expansions[i] = ()
                    self.clash[i] = 1 << i
                    self.literals |= 1 << i
                case Not():
                    atom = parts[0]
                    self.clash[i] = 1 << atom
                    self.clash[atom] |= 1 << i
                    self.literals |= (1 << i) | (1 << atom)
                case Next():
                    self.step[i] = kids[0]
                    self.temporal |= 1 << i
                case And():
                    self.expansions[i] = (kids[0] | kids[1],)
                case Or():
                    self.expansions[i] = (kids[0], kids[1])
                case Until():
                    self.expansions[i] = (kids[1], kids[0])
                    self.step[i] = 1 << i
                    self.guard[i] = kids[1]
                    self.temporal |= 1 << i
                    self.untils.append((1 << i, kids[1]))
                case Release():
                    self.expansions[i] = (kids[0] | kids[1], kids[1])
                    self.step[i] = 1 << i
                    self.guard[i] = kids[0]
                    self.temporal |= 1 << i
        self._saturations: dict[int, tuple[int, ...]] = {}
        self._keys: dict[int, tuple[int, ...]] = {}

    def key(self, mask: int) -> tuple[int, ...]:
        """The canonical sort key of a state, memoized per mask."""
        found = self._keys.get(mask)
        if found is None:
            found = self._keys[mask] = _bits(mask)
        return found

    def _consistent(self, members: int, added: int) -> bool:
        """Whether adding the bits of added to members clashes nothing."""
        literals = added & self.literals
        while literals:
            low = literals & -literals
            if members & self.clash[low.bit_length() - 1]:
                return False
            literals ^= low
        return True

    def saturate(self, seed: int) -> tuple[int, ...]:
        """All saturated consistent extensions of the seed obligations, in
        canonical order; memoized per obligation mask."""
        done = self._saturations.get(seed)
        if done is not None:
            return done
        results = set()
        start = (seed, seed)
        seen = {start}
        stack = [start] if self._consistent(seed, seed) else []
        while stack:
            members, pending = stack.pop()
            if not pending:
                results.add(members)
                continue
            low = pending & -pending
            rest = pending ^ low
            for addition in self.expansions[low.bit_length() - 1]:
                added = addition & ~members
                grown = members | added
                if added and not self._consistent(grown, added):
                    continue
                item = (grown, rest | added)
                if item not in seen:
                    seen.add(item)
                    stack.append(item)
        done = self._saturations[seed] = tuple(sorted(results, key=self.key))
        return done

    def obligations(self, state: int) -> int:
        """What a state leaves for the next position: the operand of each
        Next, and each Until/Release not yet discharged here."""
        out = 0
        for i in _bits(state & self.temporal):
            if not state & self.guard[i]:
                out |= self.step[i]
        return out


@dataclass
class GeneralizedBuchiAutomaton:
    states: tuple[State, ...]
    initial: tuple[State, ...]
    transitions: dict
    acceptance: tuple[frozenset, ...]
    alphabet: tuple[str, ...]

    def valuation(self, state: State) -> frozenset[str]:
        """The minimal valuation admitted by a state: exactly the positive
        atom obligations; unmentioned propositions stay absent."""
        return frozenset(f.name for f in state if isinstance(f, Atom))


def build_automaton(formula: Formula) -> GeneralizedBuchiAutomaton:
    """Formula must be plain LTL, desugared, in NNF."""
    tableau = _Tableau(formula)
    initial = tableau.saturate(tableau.root)
    transitions = {}
    queue = deque(initial)
    seen = set(initial)
    while queue:
        state = queue.popleft()
        succs = tableau.saturate(tableau.obligations(state))
        transitions[state] = succs
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    states = sorted(seen, key=tableau.key)
    nodes = tableau.nodes
    as_set = {s: frozenset([nodes[i] for i in tableau.key(s)]) for s in states}
    acceptance = tuple(
        frozenset(as_set[s] for s in states if not s & until or s & right)
        for until, right in tableau.untils
    )
    present = 0
    for s in states:
        present |= s
    atoms = _bits(present & tableau.atoms)
    return GeneralizedBuchiAutomaton(
        tuple(as_set[s] for s in states),
        tuple(as_set[s] for s in initial),
        {
            as_set[s]: tuple(as_set[t] for t in succs)
            for s, succs in transitions.items()
        },
        acceptance,
        tuple(sorted({nodes[i].name for i in atoms})),
    )


def _tarjan_sccs(aut: GeneralizedBuchiAutomaton) -> list[frozenset]:
    index: dict = {}
    low: dict = {}
    comp_stack = []
    on_stack = set()
    next_index = 0
    sccs = []
    for root in aut.states:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = next_index
                next_index += 1
                comp_stack.append(v)
                on_stack.add(v)
            descended = False
            succs = aut.transitions[v]
            while i < len(succs):
                w = succs[i]
                i += 1
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = comp_stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _bfs_path(aut, start, goal, restrict, allow_empty) -> list:
    """Shortest path from start to a goal state, staying inside restrict.
    With allow_empty, a start that is already a goal yields [start]."""
    if allow_empty and goal(start):
        return [start]
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in aut.transitions[v]:
            if w not in restrict:
                continue
            if goal(w):
                path = [w, v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if w in parent:
                continue
            parent[w] = v
            queue.append(w)
    raise AssertionError("goal unreachable inside a strongly connected set")


def check_emptiness(
    aut: GeneralizedBuchiAutomaton,
) -> UltimatelyPeriodicTrace | None:
    """None if the language is empty, else a lasso whose stem is a shortest
    path into an accepting component and whose cycle touches every
    acceptance set at least once."""
    if not aut.initial:
        return None

    accepting = []
    for scc in _tarjan_sccs(aut):
        cyclic = len(scc) > 1 or any(
            s in aut.transitions[s] for s in scc
        )
        if cyclic and all(scc & acc for acc in aut.acceptance):
            accepting.append(scc)
    if not accepting:
        return None
    # aut.states is in canonical order, so position ranks the components
    position = {s: i for i, s in enumerate(aut.states)}
    target = min(accepting, key=lambda scc: min(position[s] for s in scc))

    # shortest stem: breadth-first from all initial states at once
    parent: dict = {}
    queue = deque()
    for s in aut.initial:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    entry = None
    for s in aut.initial:
        if s in target:
            entry = s
            break
    while entry is None:
        v = queue.popleft()
        for w in aut.transitions[v]:
            if w in parent:
                continue
            parent[w] = v
            if w in target:
                entry = w
                break
            queue.append(w)
    stem_states = [entry]
    while parent[stem_states[-1]] is not None:
        stem_states.append(parent[stem_states[-1]])
    stem_states.reverse()

    # cycle from the entry state through every acceptance set and back
    path = [entry]
    for acc in aut.acceptance:
        if any(s in acc for s in path):
            continue
        seg = _bfs_path(
            aut, path[-1], lambda s: s in acc, target, allow_empty=False
        )
        path.extend(seg[1:])
    back = _bfs_path(
        aut,
        path[-1],
        lambda s: s == entry,
        target,
        allow_empty=len(path) > 1,
    )
    path.extend(back[1:])

    stem = tuple(aut.valuation(s) for s in stem_states[:-1])
    loop = tuple(aut.valuation(s) for s in path[:-1])
    return UltimatelyPeriodicTrace(stem, loop)


def ltl_sat(formula: Formula) -> UltimatelyPeriodicTrace | None:
    """Satisfiability of a plain LTL formula; a witness lasso or None.
    Accepts any plain formula; desugars and normalizes internally."""
    core = to_nnf(desugar(formula))
    for atom in _atoms(core):
        if atom.trace is not None:
            raise ValueError(
                f"indexed atom {atom.name}_{atom.trace} in plain LTL input"
            )
    aut = build_automaton(core)
    return check_emptiness(aut)
