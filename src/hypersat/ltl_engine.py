"""LTL satisfiability via a tableau-built generalized Buchi automaton.

States are saturated, locally consistent obligation sets over the closure
of the input formula.  A transition moves to any saturation of the next-
step obligations.  One acceptance set per Until subformula rules out runs
that postpone an eventuality forever.

The closure is indexed once: each distinct subformula gets one bit, and
bits are numbered in the canonical formula order, so the tableau runs on
int bitmasks and ascending bit order is formula order.  One set-up reads
the table to_nnf makes, sorts its rows into bits, and fills each bit's
tables from its operation code.  Each bit's expansion alternatives are
closed once, up front, under the bits that leave no choice, so
saturation only searches over real branches, and a saturation with
nothing to branch on is its closed start alone (or nothing, if the start
clashes), with no search at all.  The search decides each branching bit
once, every user before its operands, so no decision brings in a bit
already passed and the search keeps only a set of member masks.  The
order changes no result: for one choice of alternative per bit, a
saturation is the least set that holds the start and is closed under
those choices, in whatever order they are applied.

The reachable states are numbered 0..N-1 by one sort of their masks in
the canonical state order, and emptiness runs on those numbers, so
identical inputs yield identical automata and witnesses across processes.
The automaton holds numbers and names only: the proposition of each atom
bit, from which the valuations of the lasso's states are read.  No
formula node is made.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .models import UltimatelyPeriodicTrace
from .syntax import (
    AND,
    ATOM,
    CONST,
    NEXT,
    NOT,
    OR,
    RELEASE,
    UNTIL,
    Formula,
    HyperFormula,
    _nodes,
    _table_of,
    to_nnf,
)


def _bits(mask: int) -> tuple[int, ...]:
    """Set-bit indices of a mask, ascending: a state's canonical key."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_FLIP = str.maketrans("01", "10")


def _order(mask: int) -> str:
    """The canonical sort key of a state: its bits from the lowest up, a
    member as "0" and a non-member as "1", ending at the highest member.
    It sorts exactly like the ascending tuple of members, `_bits(mask)`:
    at the first bit where two states differ, a state that has ended
    sorts first, then one that has the bit, then one that has not."""
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


class _Tableau:
    """Per-bit tables over the indexed closure, and saturation on ints.

    The bits are the rows of a desugared NNF formula's table (a
    HyperFormula's own, or a Formula's core_table), operands first, in
    the canonical order: rank (a row's operation code) first, then leaves
    by payload and compound nodes by their operands, left to right.  Each
    row sorts by its pre-order token string: one byte of rank per node,
    and after a leaf's rank its four-byte position among the sorted leaf
    payloads.  The rank fixes each token's length and arity, so the
    strings are prefix-free and sort like the nested key, and two rows
    have one token exactly when they are equal subformulas: rows a row
    pass left apart share a bit.  A sugar row, or a NOT over no atom,
    raises ValueError.

    A bit is deterministic when exactly one of its expansion alternatives
    is consistent on its own (And, literals, Next, TRUE, a Release whose
    other alternative holds FALSE); it branches when two are (Or, Until,
    a two-way Release).  Each alternative is stored closed under the
    deterministic bits it brings in, together with the clash mask of the
    literals in that closure, so saturation only branches, and a choice
    is consistent with a state exactly when the two masks do not meet."""

    def __init__(self, formula):
        table = _table_of(formula)
        ops, lhs, rhs, root = table
        leaves = sorted(
            {(op, lhs[n], rhs[n] or "") for n, op in enumerate(ops)
             if op <= CONST}
        )
        leaf_code = {
            leaf: i.to_bytes(4, "big") for i, leaf in enumerate(leaves)
        }
        tokens: list[bytes] = []  # operands precede their users in the rows
        for n, op in enumerate(ops):
            head = bytes((op,))
            if op <= CONST:
                tokens.append(head + leaf_code[op, lhs[n], rhs[n] or ""])
            elif op > RELEASE or op == NOT and ops[lhs[n]] != ATOM:
                raise ValueError(
                    "automaton construction needs a desugared NNF formula, "
                    f"found {_nodes(table)[n]!r}"
                )
            elif op <= NEXT:
                tokens.append(head + tokens[lhs[n]])
            else:
                tokens.append(head + tokens[lhs[n]] + tokens[rhs[n]])
        # each row's closure position: equal tokens share one
        position = [0] * len(ops)
        size, last = 0, None
        for n in sorted(range(len(ops)), key=tokens.__getitem__):
            if tokens[n] != last:
                size, last = size + 1, tokens[n]
            position[n] = size - 1
        self.root = 1 << position[root]
        # bits that contradict a literal: its complement, and FALSE itself
        clash = [0] * size
        for n, op in enumerate(ops):
            if op == NOT:
                i, atom = position[n], position[lhs[n]]
                clash[i] = 1 << atom
                clash[atom] |= 1 << i
            elif op == CONST and not lhs[n]:
                clash[position[n]] = 1 << position[n]
        names: list[str | None] = [None] * size
        # next-step obligation of a temporal bit, and the bit discharging it
        self.step = [0] * size
        self.guard = [0] * size
        self.temporal = 0
        self.atoms = 0
        self.untils: list[tuple[int, int]] = []
        # each branching bit with its closed alternatives, users first
        self.decisions: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        self.branching = 0
        # each bit's closure under deterministic bits, and its clash mask
        closure = self._closure = [None] * size

        for n, op in enumerate(ops):  # operands before the bits that use them
            i = position[n]
            if closure[i] is not None:
                continue
            bit = 1 << i
            if op <= NEXT:  # a leaf, a literal or a Next leaves no choice
                if op == ATOM:
                    names[i] = lhs[n]
                    self.atoms |= bit
                elif op == NEXT:
                    self.step[i] = 1 << position[lhs[n]]
                    self.temporal |= bit
                closure[i] = (bit, clash[i])
                continue
            left, right = position[lhs[n]], position[rhs[n]]
            if op == OR:
                alternatives = (closure[left], closure[right])
            elif op == UNTIL:
                alternatives = (closure[right], closure[left])
                self.step[i] = bit
                self.guard[i] = 1 << right
                self.temporal |= bit
                self.untils.append((bit, 1 << right))
            else:
                both = (
                    closure[left][0] | closure[right][0],
                    closure[left][1] | closure[right][1],
                )
                if op == AND:
                    alternatives = (both,)
                else:  # RELEASE
                    alternatives = (both, closure[right])
                    self.step[i] = bit
                    self.guard[i] = 1 << left
                    self.temporal |= bit
            alive = [a for a in alternatives if not a[0] & a[1]]
            if len(alive) == 2:
                self.decisions.append((bit, tuple(alive)))
                self.branching |= bit
                closure[i] = (bit, clash[i])
            elif alive:
                closure[i] = (bit | alive[0][0], clash[i] | alive[0][1])
            else:  # no consistent alternative: clashes with itself
                closure[i] = (bit, bit)
        self.names = tuple(names)
        self.decisions.reverse()
        self.untils.sort()  # canonical order, as the acceptance sets go
        # the states found so far, numbered in order of discovery, and the
        # distinct saturations as tuples of those numbers
        self.masks: list[int] = []
        self._numbers: dict[int, int] = {}
        self.saturations: list[tuple[int, ...]] = []
        self._saturated: dict[int, int] = {}  # seed -> its saturation's place

    def saturate(self, seed: int) -> int:
        """The place in `saturations` of all saturated consistent extensions
        of the seed obligations.  They depend only on the seed's closure
        under the deterministic bits, so both masks key the memo."""
        done = self._saturated.get(seed)
        if done is not None:
            return done
        closure = self._closure
        start = start_clash = 0
        rest = seed
        while rest:
            low = rest & -rest
            rest ^= low
            mask, clashes = closure[low.bit_length() - 1]
            start |= mask
            start_clash |= clashes
        done = self._saturated.get(start)
        if done is None:
            done = self._saturated[start] = len(self.saturations)
            numbers, masks, found = self._numbers, self.masks, []
            for state in self._search(start, start_clash):
                number = numbers.get(state)
                if number is None:
                    number = numbers[state] = len(masks)
                    masks.append(state)
                found.append(number)
            self.saturations.append(tuple(found))
        self._saturated[seed] = done
        return done

    def _search(self, start: int, start_clash: int) -> tuple | set:
        """The saturated states of a closed start: every branching member
        keeps one alternative.  The branching bits are decided once each,
        users before their operands, on one set of member masks: deciding
        a bit replaces each mask that holds it by its consistent unions
        with the bit's alternatives.  An alternative holds only subformulas
        of the bit's operands, decided later in this order, so no decision
        adds a bit already passed, and every branching member of a mask
        left at the end has been decided.  A start that clashes has no
        state, and one with nothing to branch on is its own only state."""
        if start & start_clash:
            return ()
        if not start & self.branching:
            return (start,)
        layer = {start}
        for bit, choices in self.decisions:
            deciding = [members for members in layer if members & bit]
            layer.difference_update(deciding)
            for closure, clashes in choices:
                for members in deciding:
                    if not members & clashes:
                        layer.add(members | closure)
        return layer


@dataclass
class GeneralizedBuchiAutomaton:
    """The tableau automaton over dense state numbers.

    The states are 0..N-1 in canonical order; `states[i]` is state i's
    bitmask over the closure, the distinct subformulas in canonical
    order.  `transitions` maps each state, in state order, to its
    successors and `initial` lists the initial states, both ascending.
    Each acceptance set holds the states that fulfil one Until, in the
    canonical order of the Untils.  `names` gives the proposition of each
    atom bit, and None for every other bit; `atoms` masks the atom bits."""

    states: tuple[int, ...]
    initial: tuple[int, ...]
    transitions: dict[int, tuple[int, ...]]
    acceptance: tuple[frozenset[int], ...]
    names: tuple[str | None, ...]
    atoms: int

    def valuation(self, state: int) -> frozenset[str]:
        """The minimal valuation admitted by a state: exactly the positive
        atom obligations; unmentioned propositions stay absent."""
        mask = self.states[state] & self.atoms
        return frozenset([self.names[i] for i in _bits(mask)])


def build_automaton(formula) -> GeneralizedBuchiAutomaton:
    """Formula must be plain LTL, desugared, in NNF: a Formula, or a
    HyperFormula whose table is read, as to_nnf makes it.  The tableau's
    set-up indexes that table straight into its per-bit tables."""
    tableau = _Tableau(formula)
    saturate, saturated = tableau.saturate, tableau._saturated
    temporal, guard, step = tableau.temporal, tableau.guard, tableau.step
    first = saturate(tableau.root)
    masks = tableau.masks
    successors = []
    for state in masks:  # grows as states are found: the breadth-first queue
        # what the state leaves for the next position: the operand of each
        # Next, and each Until/Release not yet discharged here
        seed = 0
        rest = state & temporal
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if not state & guard[i]:
                seed |= step[i]
        done = saturated.get(seed)
        successors.append(saturate(seed) if done is None else done)

    # one sort renumbers the states from discovery order to canonical order
    keys = [_order(mask) for mask in masks]
    order = sorted(range(len(masks)), key=keys.__getitem__)
    rank = [0] * len(masks)
    for i, found in enumerate(order):
        rank[found] = i
    saturations = [
        tuple(sorted([rank[found] for found in sat]))
        for sat in tableau.saturations
    ]
    states = tuple([masks[found] for found in order])
    acceptance = tuple(
        frozenset([i for i, s in enumerate(states) if not s & u or s & right])
        for u, right in tableau.untils
    )
    return GeneralizedBuchiAutomaton(
        states=states,
        initial=saturations[first],
        transitions={
            i: saturations[successors[found]] for i, found in enumerate(order)
        },
        acceptance=acceptance,
        names=tableau.names,
        atoms=tableau.atoms,
    )


def _tarjan_sccs(successors: list[tuple[int, ...]]) -> list[list[int]]:
    """The strongly connected components of states 0..N-1 that hold a
    cycle: more than one state, or one with a self-loop.  A state's index
    is its visiting rank from 1, 0 before its visit, and N + 1 once its
    component is complete, so no finished state lowers a low-link.  The
    low-link of the state being explored is a local; a suspended state's
    waits with it on the work stack."""
    done = len(successors) + 1
    index = [0] * len(successors)
    rank = 0
    stack: list[int] = []
    push = stack.append
    sccs = []
    for root in range(len(successors)):
        if index[root]:
            continue
        rank += 1
        index[root] = low = rank
        push(root)
        v, rest, work = root, iter(successors[root]), []
        while True:
            for w in rest:
                visited = index[w]
                if not visited:
                    work.append((v, low, rest))
                    rank += 1
                    index[w] = low = rank
                    push(w)
                    v, rest = w, iter(successors[w])
                    break
                if visited < low:
                    low = visited
            else:
                if low == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in successors[v]:
                        sccs.append(comp)
                if not work:
                    break
                child_low = low
                v, low, rest = work.pop()
                if child_low < low:
                    low = child_low
    return sccs


def _bfs_path(successors, starts, goal, inside, allow_empty) -> list[int]:
    """Shortest path from one of the starts to a goal state, moving only
    through states marked in `inside`.  With allow_empty, a start that is
    already a goal yields [start]; the first one, in the given order."""
    if allow_empty:
        for s in starts:
            if goal(s):
                return [s]
    parent = [-1] * len(successors)
    for s in starts:
        parent[s] = s
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        for w in successors[v]:
            if not inside[w]:
                continue
            if goal(w):
                path = [w, v]
                while parent[path[-1]] != path[-1]:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if parent[w] < 0:
                parent[w] = v
                queue.append(w)
    raise AssertionError("no goal state reachable inside the allowed states")


def check_emptiness(
    aut: GeneralizedBuchiAutomaton,
) -> UltimatelyPeriodicTrace | None:
    """None if the language is empty, else a lasso whose stem is a shortest
    path into an accepting component and whose cycle touches every
    acceptance set at least once."""
    if not aut.initial:
        return None
    successors = list(aut.transitions.values())  # keyed 0..N-1 in order
    accepting = []
    for scc in _tarjan_sccs(successors):
        if all(not acc.isdisjoint(scc) for acc in aut.acceptance):
            accepting.append(scc)
    if not accepting:
        return None
    # states are numbered in canonical order, so the least one ranks them
    target = bytearray(len(successors))
    for s in min(accepting, key=min):
        target[s] = 1

    # shortest stem: breadth-first from all initial states at once
    anywhere = b"\x01" * len(successors)
    stem = _bfs_path(
        successors, aut.initial, target.__getitem__, anywhere, True
    )
    entry = stem[-1]
    # cycle from the entry state through every acceptance set and back
    path = [entry]
    for acc in aut.acceptance:
        if acc.isdisjoint(path):
            seg = _bfs_path(
                successors, (path[-1],), acc.__contains__, target, False
            )
            path.extend(seg[1:])
    back = _bfs_path(
        successors, (path[-1],), entry.__eq__, target, len(path) > 1
    )
    path.extend(back[1:])
    return UltimatelyPeriodicTrace(
        tuple([aut.valuation(s) for s in stem[:-1]]),
        tuple([aut.valuation(s) for s in path[:-1]]),
    )


def ltl_sat(formula: Formula) -> UltimatelyPeriodicTrace | None:
    """Satisfiability of a plain LTL formula; a witness lasso or None.
    Accepts any plain formula, as the empty-prefix HyperFormula, which
    to_nnf reads through the check_well_formed gate: one walk and one
    check, so an indexed atom is refused as in any other unquantified
    formula, then its sugar is expanded on the way to the NNF."""
    return check_emptiness(build_automaton(to_nnf(HyperFormula((), formula))))
