"""Write the golden corpus: the answers of fixed sat and implies requests.

    PYTHONPATH=src python tests/make_golden.py

Each request is answered with the library calls the CLI's sat and implies
handlers make, with the CLI's default options, and written as one JSON
line: the request's text, the verdict, the `stats` the CLI prints
(conjuncts and automaton_states) and the printed model lines.  The texts
are the 1,000 random sat queries of the sat-mix pool, copied out of
perfbench/keys.json, the eight requests of the large-automata pool, and
200 implication pairs drawn with a fixed seed from the pool's exists-only
and forall-only queries, the countermodels of the failing ones included.
test_golden.py reads the lines back and answers every request again; a
change that alters a line changes behaviour, so it must say so and write
the corpus again.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from hypersat.fragments import ExistsStar, ForallStar, classify
from hypersat.implication import Fails, Holds, check_implication
from hypersat.models import format_trace
from hypersat.solver import Sat, SolverOptions, Unsat, solve
from hypersat.syntax import parse_hyperltl

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
KEYS = HERE.parent / "perfbench" / "keys.json"

WEAK_OD = "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))"
BOX_OD = "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"
E3A2 = (
    "exists p1. exists p2. exists p3. forall q1. forall q2. "
    "G (a_q1 -> X b_q2)"
)
GF6 = "exists p. " + " & ".join(f"G F b{i}_p" for i in range(1, 7))
GF5 = "exists p. " + " & ".join(f"G F b{i}_p" for i in range(1, 6))
X300 = "X " * 300 + "a_p"

# The large-automata requests: a text to decide, or an implication's pair.
LARGE_AUTOMATA = [
    [WEAK_OD, BOX_OD],
    [BOX_OD, WEAK_OD],
    E3A2,
    E3A2 + " & F a_p1 & G !b_p2",
    GF6,
    GF5 + " & F G !b1_p",
    "exists p. " + X300,
    f"exists p. ({X300}) & G !a_p",
]


def _lines(trace_set) -> list[str]:
    return [format_trace(t) for t in trace_set.sorted()]


def answer(request) -> dict:
    """The golden line of a request: the JSON object that `hypersat sat
    --json --model` prints for a text, or `hypersat implies --json
    --model` for a pair [antecedent, consequent], and the request."""
    options = SolverOptions()
    line = {"text": request, "verdict": None, "stats": None, "model": None}
    if isinstance(request, list):
        verdict = check_implication(*map(parse_hyperltl, request), options)
        line["stats"] = {"conjuncts": None, "automaton_states": None}
        if isinstance(verdict, Holds):
            line["verdict"] = "HOLDS"
        elif isinstance(verdict, Fails):
            line["verdict"] = "FAILS"
            line["model"] = _lines(verdict.countermodel)
        else:
            line["verdict"] = "UNSUPPORTED: implication"
            line["message"] = verdict.message
        return line
    result, stats = solve(parse_hyperltl(request), options)
    line["stats"] = {
        "conjuncts": stats.conjuncts,
        "automaton_states": stats.automaton_states,
    }
    if isinstance(result, Sat):
        line.update(
            verdict="SAT", model=_lines(result.model), verified=result.verified
        )
    elif isinstance(result, Unsat):
        line["verdict"] = "UNSAT"
    else:
        line["verdict"] = f"UNSUPPORTED: {result.fragment.name}"
        line["message"] = result.message
    return line


def implication_pairs(texts: list[str], count: int) -> list[list[str]]:
    """Pairs of the alternation-free texts, both sides drawn at random with
    a fixed seed: the implications the implies handler can decide."""
    free = [
        text
        for text in texts
        if isinstance(
            classify(parse_hyperltl(text)), (ExistsStar, ForallStar)
        )
    ]
    rng = random.Random(0)
    return [[rng.choice(free), rng.choice(free)] for _ in range(count)]


def corpus() -> dict[str, list]:
    """Each golden file's name and its requests, in order."""
    pool = json.loads(KEYS.read_text(encoding="utf-8"))["sat_mix"]["queries"]
    texts = [entry["text"] for entry in pool]
    return {
        "sat_mix.jsonl": texts,
        "large_automata.jsonl": LARGE_AUTOMATA,
        "implies.jsonl": implication_pairs(texts, 200),
    }


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name, requests in corpus().items():
        lines = [json.dumps(answer(r)) for r in requests]
        (GOLDEN / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}: {len(lines)} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
