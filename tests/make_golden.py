"""Write the golden corpus: the answers of fixed sat, implies and
encode-pcp requests.

    PYTHONPATH=src python tests/make_golden.py

Each request is answered with the library calls the CLI's sat, implies
and encode-pcp handlers make, with the CLI's default options, and written
as one JSON line.  A sat or implies line holds the request's text, the
verdict, the `stats` the CLI prints (conjuncts and automaton_states) and
the printed model lines.  The texts are the 1,000 random sat queries of
the sat-mix pool, copied out of perfbench/keys.json, the eight requests
of the large-automata pool, and 200 implication pairs drawn with a fixed
seed from the pool's exists-only and forall-only queries, the
countermodels of the failing ones included.  An encode-pcp line holds
the instance with its solution, the sha256 and length of the formula
text that `encode-pcp` prints, and the witness lines that `encode-pcp
--solution` prints; the instances are the eight of the eval-pcp pool,
read from perfbench/keys.json, test_pcp.EXAMPLE and SIX_STONES.
test_golden.py reads the lines back and answers every request again; a
change that alters a line changes behaviour, so it must say so and write
the corpus again.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from hypersat.fragments import ExistsStar, ForallStar, classify
from hypersat.implication import Fails, Holds, check_implication
from hypersat.models import format_trace
from hypersat.pcp import (
    encode_pcp,
    encode_solution_traceset,
    parse_instance,
    parse_solution,
)
from hypersat.solver import Sat, SolverOptions, Unsat, solve
from hypersat.syntax import parse_hyperltl, render

from generators import SIX_STONES

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

# The encode-pcp requests beside the eval-pcp pool's: test_pcp.EXAMPLE and
# SIX_STONES, each with its solution.
PCP_INSTANCES = [
    {
        "alphabet": ["a", "b"],
        "stones": [["a", "baa"], ["ab", "aa"], ["bba", "bb"]],
        "indices": [3, 2, 3, 1],
    },
    {
        "alphabet": list(SIX_STONES.alphabet),
        "stones": [list(stone) for stone in SIX_STONES.stones],
        "indices": [1, 2, 3, 4, 5, 6],
    },
]


def _lines(trace_set) -> list[str]:
    return [format_trace(t) for t in trace_set.sorted()]


def answer(request) -> dict:
    """The golden line of a request: the JSON object that `hypersat sat
    --json --model` prints for a text, or `hypersat implies --json
    --model` for a pair [antecedent, consequent], and the request.  For an
    instance {"alphabet", "stones", "indices"}, the line of encode_answer."""
    if isinstance(request, dict):
        return encode_answer(request)
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


def encode_answer(request: dict) -> dict:
    """The golden line of an encode-pcp request: the sha256 and length of
    the formula text that `hypersat encode-pcp` prints for the instance,
    and the witness lines that `--solution` prints for its indices."""
    instance = parse_instance(json.dumps(
        {"alphabet": request["alphabet"], "stones": request["stones"]}
    ))
    text = render(encode_pcp(instance))
    indices = parse_solution(json.dumps({"indices": request["indices"]}))
    return {
        "text": request,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "length": len(text),
        "witness": _lines(encode_solution_traceset(instance, indices)),
    }


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
    keys = json.loads(KEYS.read_text(encoding="utf-8"))
    texts = [entry["text"] for entry in keys["sat_mix"]["queries"]]
    instances = [
        {key: entry[key] for key in ("alphabet", "stones", "indices")}
        for entry in keys["eval_pcp"]["instances"]
    ]
    return {
        "sat_mix.jsonl": texts,
        "large_automata.jsonl": LARGE_AUTOMATA,
        "implies.jsonl": implication_pairs(texts, 200),
        "encode_pcp.jsonl": instances + PCP_INSTANCES,
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
