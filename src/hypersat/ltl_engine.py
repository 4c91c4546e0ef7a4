"""LTL satisfiability via a tableau-built generalized Buchi automaton.

States are saturated, locally consistent obligation sets over the closure
of the input formula.  A transition moves to any saturation of the next-
step obligations.  One acceptance set per Until subformula rules out runs
that postpone an eventuality forever.

The closure is indexed once: each distinct subformula gets one bit, and
bits are numbered in the canonical formula order, so the tableau runs on
int bitmasks and ascending bit order is formula order.  Every choice below
iterates in that order, so identical inputs yield identical automata and
witnesses across processes.  Each bit's expansion alternatives are closed
once, up front, under the bits that leave no choice, so saturation only
searches over real branches.  The finished automaton hands its states out
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
    order, with each one's operand positions, the root's position, and
    every position listed operands first.

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
        position,
    )


class _Tableau:
    """Per-bit tables over the indexed closure, and saturation on ints.

    A bit is deterministic when exactly one of its expansion alternatives
    is consistent on its own (And, literals, Next, TRUE, a Release whose
    other alternative holds FALSE); it branches when two are (Or, Until,
    a two-way Release).  Each alternative is stored closed under the
    deterministic bits it brings in, together with the clash mask of the
    literals in that closure, so saturation only branches, and a choice
    is consistent with a state exactly when the two masks do not meet."""

    def __init__(self, formula: Formula):
        self.nodes, operands, root, topological = _index(formula)
        self.root = 1 << root
        n = len(self.nodes)
        # bits that contradict a literal: its complement.  Ranks order the
        # closure, so the negated atoms follow the leaves, before the rest.
        clash = [0] * n
        for i, f in enumerate(self.nodes):
            if isinstance(f, Not):
                atom = operands[i][0]
                clash[i] = 1 << atom
                clash[atom] |= 1 << i
            elif not isinstance(f, (Atom, Const)):
                break
        # next-step obligation of a temporal bit, and the bit discharging it
        self.step = [0] * n
        self.guard = [0] * n
        self.temporal = 0
        self.atoms = 0
        self.untils: list[tuple[int, int]] = []
        # the closed alternatives of each branching bit
        self.choices: list[tuple[tuple[int, int], ...]] = [()] * n
        self.branching = 0
        # each bit's closure under deterministic bits, and its clash mask
        closure = self._closure = [(0, 0)] * n

        def joined(left, right):
            return (
                closure[left][0] | closure[right][0],
                closure[left][1] | closure[right][1],
            )

        for i in topological:  # operands before the bits that use them
            f, parts, bit = self.nodes[i], operands[i], 1 << i
            alternatives = ((0, 0),)
            match f:
                case Atom():
                    self.atoms |= bit
                case Const(False):
                    alternatives = ()
                case Next():
                    self.step[i] = 1 << parts[0]
                    self.temporal |= bit
                case And():
                    alternatives = (joined(*parts),)
                case Or():
                    alternatives = (closure[parts[0]], closure[parts[1]])
                case Until():
                    alternatives = (closure[parts[1]], closure[parts[0]])
                    self.step[i] = bit
                    self.guard[i] = 1 << parts[1]
                    self.temporal |= bit
                    self.untils.append((bit, 1 << parts[1]))
                case Release():
                    alternatives = (joined(*parts), closure[parts[1]])
                    self.step[i] = bit
                    self.guard[i] = 1 << parts[0]
                    self.temporal |= bit
            alive = tuple(a for a in alternatives if not a[0] & a[1])
            if len(alive) == 2:
                self.choices[i] = alive
                self.branching |= bit
                closure[i] = (bit, clash[i])
            elif alive:
                closure[i] = (bit | alive[0][0], clash[i] | alive[0][1])
            else:  # FALSE, or no consistent alternative: clashes with itself
                closure[i] = (bit, bit)
        self.untils.sort()  # canonical order, as the acceptance sets go
        self._saturations: dict[int, tuple[int, ...]] = {}
        self._keys: dict[int, tuple[int, ...]] = {}

    def key(self, mask: int) -> tuple[int, ...]:
        """The canonical sort key of a state, memoized per mask."""
        found = self._keys.get(mask)
        if found is None:
            found = self._keys[mask] = _bits(mask)
        return found

    def saturate(self, seed: int) -> tuple[int, ...]:
        """All saturated consistent extensions of the seed obligations, in
        canonical order.  They depend only on the seed's closure under the
        deterministic bits, so both masks key the memo."""
        done = self._saturations.get(seed)
        if done is not None:
            return done
        start = start_clash = 0
        for i in _bits(seed):
            mask, clashes = self._closure[i]
            start |= mask
            start_clash |= clashes
        done = self._saturations.get(start)
        if done is None:
            done = self._saturations[start] = self._search(start, start_clash)
        self._saturations[seed] = done
        return done

    def _search(self, start: int, start_clash: int) -> tuple[int, ...]:
        """Depth-first over (members, pending branching bits) from a closed,
        consistent start: every member keeps one alternative."""
        if start & start_clash:
            return ()
        branching, choices = self.branching, self.choices
        results = set()
        first = (start, start & branching)
        seen = {first}
        stack = [first]
        while stack:
            members, pending = stack.pop()
            if not pending:
                results.add(members)
                continue
            low = pending & -pending
            rest = pending ^ low
            for closure, clashes in choices[low.bit_length() - 1]:
                if members & clashes:
                    continue
                item = (
                    members | closure,
                    rest | (closure & ~members & branching),
                )
                if item not in seen:
                    seen.add(item)
                    stack.append(item)
        return tuple(sorted(results, key=self.key))

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
    # memoized saturations share their tuples: convert each one once
    converted: dict[int, tuple[State, ...]] = {}
    for succs in transitions.values():
        if id(succs) not in converted:
            converted[id(succs)] = tuple([as_set[t] for t in succs])
    return GeneralizedBuchiAutomaton(
        tuple(as_set[s] for s in states),
        tuple(as_set[s] for s in initial),
        {as_set[s]: converted[id(succs)] for s, succs in transitions.items()},
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
