"""Encoding of the Post correspondence problem into forall-exists formulas.

A PCP instance is a list of stones (pairs of words).  Each candidate trace
spells an overlapped pair of words in pair propositions p_x_y, one pair
per position; a dot prefix d marks the first symbol of every stone's word,
and hash pads the shorter side.  The generated formula says: some trace
spells a solution (both components equal and dotted together), and every
trace that is not all-hash starts with a whole stone and has a companion
trace with that stone's contribution deleted.  Satisfiability of the
result is exactly solvability of the instance, which is why formulas with
a forall before an exists are refused by the solver.

encode_pcp builds the formula as one hash-consed table (syntax's rows),
with no formula node: each disjunction over a pattern of pairs on a trace
is made once and shared by every stone that uses it, and the universal
atoms are made once for the pairwise exclusions.  Its body is made only
when it is read, as a parsed formula's is.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInstance, NotASolution
from .models import TraceSet, UltimatelyPeriodicTrace
from .syntax import (
    AND,
    ATOM,
    EVENTUALLY,
    EXISTS,
    FORALL,
    GLOBALLY,
    IMPLIES,
    NEXT,
    NOT,
    OR,
    UNTIL,
    HyperFormula,
    _from_table,
    _new_table,
)

HASH = "hash"

UNIVERSAL = "pi"
SOLUTION = "pis"
SHIFTED = "pip"


def dotted(symbol: str) -> str:
    return "d" + symbol


@dataclass(frozen=True)
class PcpInstance:
    alphabet: tuple[str, ...]
    stones: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.alphabet:
            raise InvalidInstance("empty alphabet")
        for sym in self.alphabet:
            if len(sym) != 1 or not sym.isalnum():
                raise InvalidInstance(
                    f"alphabet symbols are single alphanumeric characters, "
                    f"got {sym!r}"
                )
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidInstance("duplicate alphabet symbol")
        if not self.stones:
            raise InvalidInstance("an instance needs at least one stone")
        for top, bottom in self.stones:
            for word in (top, bottom):
                if not word:
                    raise InvalidInstance("stone words must be non-empty")
                for c in word:
                    if c not in self.alphabet:
                        raise InvalidInstance(
                            f"word {word!r} uses {c!r}, not in the alphabet"
                        )


@dataclass(frozen=True)
class PairAlphabet:
    """Propositions for pairs over the doubled alphabet: plain symbols,
    their dotted copies, and the hash padding symbol."""

    alphabet: tuple[str, ...]

    def symbols(self) -> list[str]:
        plain = list(self.alphabet)
        return plain + [dotted(s) for s in plain] + [HASH]

    def variants(self, base: str) -> list[str]:
        """The tokens spelling a base symbol regardless of dotting."""
        if base == HASH:
            return [HASH]
        return [base, dotted(base)]

    def dotted_any(self) -> list[str]:
        return [dotted(s) for s in self.alphabet]

    def prop(self, left: str, right: str) -> str:
        return f"p_{left}_{right}"

    def all_props(self) -> list[str]:
        syms = self.symbols()
        return [self.prop(x, y) for x in syms for y in syms]


class _Rows:
    """The rows of one encoding, made into one hash-consed table: each
    disjunction over a (lefts, rights, trace) pattern is made once, and
    every later use of it reads its row."""

    def __init__(self, pa: PairAlphabet):
        self.pa = pa
        _, self.make, self.finish = _new_table()
        self.disjunctions: dict[tuple, int] = {}

    def fold(self, op: int, rows) -> int:
        """The rows joined by op, left to right, as reduce would."""
        make = self.make
        return reduce(lambda left, right: make(op, left, right), rows)

    def nexts(self, k: int, row: int) -> int:
        for _ in range(k):
            row = self.make(NEXT, row)
        return row

    def pairs(self, lefts, rights, trace: str) -> int:
        """The disjunction of the pair atoms lefts x rights on trace."""
        key = tuple(lefts), tuple(rights), trace
        row = self.disjunctions.get(key)
        if row is None:
            make, prop = self.make, self.pa.prop
            row = self.disjunctions[key] = self.fold(
                OR,
                [make(ATOM, prop(x, y), trace)
                 for x, y in itertools.product(lefts, rights)],
            )
        return row

    def stone_start(self, top: str, bottom: str, continuing: bool) -> int:
        """Pattern pinning positions 0..max(|top|,|bottom|) of a trace that
        begins with this stone, followed by another stone (continuing) or
        by hash padding."""
        pa = self.pa
        return self.fold(AND, [
            self.nexts(j, self.pairs(_side(pa, top, j, continuing),
                                     _side(pa, bottom, j, continuing),
                                     UNIVERSAL))
            for j in range(max(len(top), len(bottom)) + 1)
        ])

    def stone(self, top: str, bottom: str) -> int:
        make, pa = self.make, self.pa
        start = make(
            OR,
            self.stone_start(top, bottom, continuing=True),
            self.stone_start(top, bottom, continuing=False),
        )
        all_syms = pa.symbols()
        deletes = []
        for side, word in enumerate((top, bottom)):
            for base in list(pa.alphabet) + [HASH]:
                pair = [all_syms, all_syms]
                pair[side] = pa.variants(base)
                deletes.append(make(GLOBALLY, make(
                    IMPLIES,
                    self.nexts(len(word), self.pairs(*pair, UNIVERSAL)),
                    self.pairs(*pair, SHIFTED),
                )))
        return self.fold(AND, [start] + deletes)


def _side(pa: PairAlphabet, word: str, j: int, continuing: bool) -> list:
    """The symbols one side of a stone's start pattern allows at position
    j: the word, dotted at its start, then a dotted start of the next
    stone and any symbol (later stones may be shorter on this side and
    pad it with hash) when continuing, or hash padding when ending."""
    if j == 0:
        return [dotted(word[0])]
    if j < len(word):
        return [word[j]]
    if not continuing:
        return [HASH]
    return pa.dotted_any() if j == len(word) else pa.symbols()


def encode_pcp(instance: PcpInstance) -> HyperFormula:
    """The instance's formula, built as one hash-consed table; its body is
    made only when it is read."""
    pa = PairAlphabet(instance.alphabet)
    rows = _Rows(pa)
    make = rows.make
    hash_pair = pa.prop(HASH, HASH)

    solution_start = rows.fold(OR, [
        make(ATOM, pa.prop(dotted(s), dotted(s)), SOLUTION)
        for s in instance.alphabet
    ])
    matched = rows.fold(OR, [
        make(ATOM, pa.prop(x, y), SOLUTION)
        for s in instance.alphabet
        for x, y in itertools.product(pa.variants(s), pa.variants(s))
    ])
    solution = make(
        AND,
        solution_start,
        make(UNTIL, matched, make(GLOBALLY, make(ATOM, hash_pair, SOLUTION))),
    )

    blank = make(GLOBALLY, make(ATOM, hash_pair, UNIVERSAL))
    stones = rows.fold(OR, [rows.stone(*stone) for stone in instance.stones])
    universal = [make(ATOM, a, UNIVERSAL) for a in pa.all_props()]
    singleton = rows.fold(AND, [
        make(GLOBALLY, make(NOT, make(AND, a, b)))
        for a, b in itertools.combinations(universal, 2)
    ])
    body = rows.fold(AND, [
        solution, make(EVENTUALLY, blank), make(OR, stones, blank), singleton
    ])
    prefix = ((FORALL, UNIVERSAL), (EXISTS, SOLUTION), (EXISTS, SHIFTED))
    return _from_table(prefix, rows.finish(body))


def encode_solution_traceset(
    instance: PcpInstance, indices: list[int]
) -> TraceSet:
    """The witness trace set for a solved instance: the overlapped solution
    trace, each suffix obtained by deleting whole stones off the front, and
    the all-hash trace."""
    if not indices:
        raise InvalidInstance("a solution needs at least one index")
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= len(instance.stones):
            raise InvalidInstance(f"stone index {i!r} out of range")
    top_word = "".join(instance.stones[i - 1][0] for i in indices)
    bottom_word = "".join(instance.stones[i - 1][1] for i in indices)
    if top_word != bottom_word:
        raise NotASolution(
            f"top spells {top_word!r}, bottom spells {bottom_word!r}"
        )

    pa = PairAlphabet(instance.alphabet)
    hash_pair = pa.prop(HASH, HASH)
    traces = []
    for d in range(len(indices) + 1):
        tops: list[str] = []
        bottoms: list[str] = []
        for i in indices[d:]:
            top, bottom = instance.stones[i - 1]
            tops.extend([dotted(top[0])] + list(top[1:]))
            bottoms.extend([dotted(bottom[0])] + list(bottom[1:]))
        span = max(len(tops), len(bottoms))
        tops.extend([HASH] * (span - len(tops)))
        bottoms.extend([HASH] * (span - len(bottoms)))
        stem = tuple(
            frozenset({pa.prop(x, y)}) for x, y in zip(tops, bottoms)
        )
        traces.append(
            UltimatelyPeriodicTrace(stem, (frozenset({hash_pair}),))
        )
    return TraceSet(frozenset(traces))


# ---------------------------------------------------------------------------
# JSON input: {"alphabet": ["a", "b"], "stones": [["a", "baa"], ...]} and
# {"indices": [3, 2, 3, 1]} with 1-based stone indices.


def parse_instance(text: str) -> PcpInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInstance(f"bad JSON: {e}") from e
    if not isinstance(data, dict):
        raise InvalidInstance("expected a JSON object")
    alphabet = data.get("alphabet")
    stones = data.get("stones")
    if not isinstance(alphabet, list) or not all(
        isinstance(s, str) for s in alphabet
    ):
        raise InvalidInstance('"alphabet" must be a list of strings')
    if (
        not isinstance(stones, list)
        or not all(
            isinstance(s, list)
            and len(s) == 2
            and all(isinstance(w, str) for w in s)
            for s in stones
        )
    ):
        raise InvalidInstance('"stones" must be a list of [top, bottom] pairs')
    return PcpInstance(tuple(alphabet), tuple((s[0], s[1]) for s in stones))


def parse_solution(text: str) -> list[int]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInstance(f"bad JSON: {e}") from e
    if not isinstance(data, dict) or not isinstance(data.get("indices"), list):
        raise InvalidInstance('expected {"indices": [...]}')
    indices = data["indices"]
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        raise InvalidInstance("indices must be integers")
    return list(indices)
