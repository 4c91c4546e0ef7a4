"""Regenerate perfbench/keys.json, the pinned inputs and answer keys of the
sat-mix and eval-pcp workloads.  Run from the repository root:

    python3 perfbench/make_keys.py

sat-mix: 1,000 random sat queries from tests/generators.py (depth 2, props
p, q, r; one third each exists-only, forall-only and exists-forall).  Each
SAT verdict is kept only after the test suite's naive evaluator accepts
the model.  UNSAT verdicts are pinned from the solver and cross-checked
once by a bounded search over small trace sets; entries too large for the
search budget are marked as pinned only.  State counts are pinned so that
the benchmark can report a change.

eval-pcp: one solvable correspondence instance per (stones, letters) in
{3..6} x {2, 3}, made by cutting one random word two ways; stone i is
(top piece i, bottom piece i) and 1..k is a solution.  `known_defect`
marks the instances whose witness the seed's encoder rejects.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import workload  # puts src/ and tests/ on the path
from generators import random_quantified
from oracles import enumerate_lassos
from hypersat import encode_pcp, evaluate_hyperltl, parse_hyperltl, render, solve
from hypersat.pcp import PcpInstance, encode_solution_traceset
from hypersat.solver import Sat
from hypersat.syntax import EXISTS, atom_names

POOL_SEED = 1
SAT_MIX_SIZE = 1000
SEARCH_BUDGET = 4000  # trace sets tried per UNSAT entry


def candidate_sets(formula):
    """Trace sets for the bounded search: single lassos with stem <= 1 and
    loop <= 2, and for formulas with two or more existentials also pairs of
    lassos with stem <= 1 and loop <= 1, over the atoms the formula uses."""
    props = tuple(sorted(atom_names(formula.body)))
    singles = list(enumerate_lassos(props, 1, 2))
    sets = [[t] for t in singles]
    if sum(q == EXISTS for q, _ in formula.prefix) >= 2:
        small = list(enumerate_lassos(props, 1, 1))
        sets += [list(pair) for pair in itertools.combinations(small, 2)]
    return sets


def sat_mix_entry(rng: random.Random, k: int) -> dict:
    props = ("p", "q", "r")
    if k % 3 == 0:
        phi = random_quantified(rng, props, 2, rng.randrange(1, 4), 0)
    elif k % 3 == 1:
        phi = random_quantified(rng, props, 2, 0, rng.randrange(1, 4))
    else:
        phi = random_quantified(rng, props, 2, rng.randrange(1, 3), rng.randrange(1, 3))
    text = render(phi)
    result, stats = solve(parse_hyperltl(text))
    entry = {"text": text, "states": stats.automaton_states}
    if isinstance(result, Sat):
        lines = workload.Api().model_lines(result.model)
        if not workload.oracle_holds(lines, text):
            raise SystemExit(f"oracle rejects the model of {text}")
        entry.update(verdict="SAT", check="model accepted by naive_eval_hyper")
        return entry
    entry["verdict"] = "UNSAT"
    formula = parse_hyperltl(text)
    sets = candidate_sets(formula)
    if len(sets) > SEARCH_BUDGET:
        entry["check"] = "pinned only"
        return entry
    for traces in sets:
        if workload.holds_over(traces, formula):
            raise SystemExit(f"bounded search finds a model of UNSAT {text}")
    entry["check"] = f"bounded search: no model among {len(sets)} trace sets"
    return entry


def pcp_instance(rng: random.Random, k: int, letters: int) -> dict:
    alphabet = "abc"[:letters]
    while True:
        n = rng.randrange(k + 1, 2 * k + 1)
        word = "".join(rng.choice(alphabet) for _ in range(n))
        top_cuts = sorted(rng.sample(range(1, n), k - 1))
        bottom_cuts = sorted(rng.sample(range(1, n), k - 1))
        if top_cuts != bottom_cuts:
            break

    def pieces(cuts):
        return [word[a:b] for a, b in zip([0] + cuts, cuts + [n])]

    stones = [list(s) for s in zip(pieces(top_cuts), pieces(bottom_cuts))]
    instance = PcpInstance(tuple(alphabet), tuple(map(tuple, stones)))
    indices = list(range(1, k + 1))
    formula = encode_pcp(instance)
    witness = encode_solution_traceset(instance, indices)
    return {
        "alphabet": list(alphabet),
        "stones": stones,
        "indices": indices,
        "known_defect": not evaluate_hyperltl(witness, formula),
    }


def main() -> int:
    rng = random.Random(POOL_SEED)
    queries = [sat_mix_entry(rng, k) for k in range(SAT_MIX_SIZE)]
    rng = random.Random(POOL_SEED)
    instances = [
        pcp_instance(rng, k, letters) for k in range(3, 7) for letters in (2, 3)
    ]
    keys = {
        "sat_mix": {"pool_seed": POOL_SEED, "queries": queries},
        "eval_pcp": {"pool_seed": POOL_SEED, "instances": instances},
    }
    path = Path(workload.HERE) / "keys.json"
    path.write_text(json.dumps(keys, indent=1) + "\n")
    unsat = [q for q in queries if q["verdict"] == "UNSAT"]
    print(f"sat-mix: {len(queries)} queries, {len(unsat)} UNSAT, "
          f"{sum(q['check'] == 'pinned only' for q in unsat)} pinned only")
    print(f"eval-pcp: {len(instances)} instances, "
          f"{sum(i['known_defect'] for i in instances)} known-defect witnesses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
