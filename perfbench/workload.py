"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh child process per workload, so peak memory
and garbage-collector state belong to that workload alone.  One client,
one request in flight (closed loop).  The workload's request list is run
in whole passes; every answer is checked against a key that does not come
from the solver, and every later pass must repeat the first pass's
answers exactly.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from hypersat.implication import Fails, Holds  # noqa: E402
from hypersat.models import parse_trace  # noqa: E402
from hypersat.solver import Sat, SolverOptions, Unsat  # noqa: E402
from hypersat.syntax import EXISTS, parse_hyperltl  # noqa: E402
from oracles import naive_eval_hyper  # noqa: E402

import speed  # noqa: E402
from spans import COUNTS, LAYER_METRICS, Api, Tracer  # noqa: E402

KEYS = HERE / "keys.json"
CHECKPOINT_S = 0.05  # seconds of requests between two checkpoints
OPTIONS = SolverOptions()  # the CLI defaults: verification on


@dataclass
class Query:
    qid: str
    request: Callable  # Api -> (verdict, output, stats)
    check: Callable  # (verdict, output) -> failure reason or None
    pinned_states: int | None = None
    known_defect: bool = False  # documented failure of the seed, still counted


# ---------------------------------------------------------------------------
# Requests, made with the library calls the CLI handlers make


def sat_request(text: str):
    def run(api: Api):
        result, stats = api.solve(api.parse(text), OPTIONS)
        counts = (stats.conjuncts, stats.automaton_states)
        if isinstance(result, Sat):
            verdict = "SAT" if result.verified else "SAT-UNVERIFIED"
            return verdict, api.model_lines(result.model), counts
        if isinstance(result, Unsat):
            return "UNSAT", None, counts
        return type(result).__name__, None, counts

    return run


def implies_request(antecedent: str, consequent: str):
    def run(api: Api):
        verdict = api.check_implication(
            api.parse(antecedent), api.parse(consequent), OPTIONS
        )
        if isinstance(verdict, Holds):
            return "HOLDS", None, None
        if isinstance(verdict, Fails):
            return "FAILS", api.model_lines(verdict.countermodel), None
        return type(verdict).__name__, None, None

    return run


# ---------------------------------------------------------------------------
# Independent checks


def oracle_holds(lines: list[str], text: str) -> bool:
    """Truth of a formula over a printed model, by the test suite's direct
    recursive evaluator with the quantifiers expanded here."""
    return holds_over([parse_trace(line) for line in lines], parse_hyperltl(text))


def holds_over(traces: list, formula) -> bool:
    def holds(k: int, env: dict) -> bool:
        if k == len(formula.prefix):
            return naive_eval_hyper(env, formula.body)
        quant, var = formula.prefix[k]
        branches = (holds(k + 1, {**env, var: t}) for t in traces)
        return any(branches) if quant == EXISTS else all(branches)

    return holds(0, {})


def expect_sat(text: str):
    def check(verdict, output):
        if verdict != "SAT":
            return f"expected a verified SAT, got {verdict}"
        if not oracle_holds(output, text):
            return "the oracle rejects the model"
        return None

    return check


def expect_verdict(expected: str):
    def check(verdict, output):
        return None if verdict == expected else f"expected {expected}, got {verdict}"

    return check


def expect_countermodel(antecedent: str, consequent: str):
    def check(verdict, output):
        if verdict != "FAILS":
            return f"expected FAILS, got {verdict}"
        if not oracle_holds(output, antecedent):
            return "countermodel falsifies the antecedent"
        if oracle_holds(output, consequent):
            return "countermodel satisfies the consequent"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads

WEAK_OD = "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))"
BOX_OD = "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"
E3A2 = "exists p1. exists p2. exists p3. forall q1. forall q2. G (a_q1 -> X b_q2)"
GF = "exists p. " + " & ".join(f"G F b{i}_p" for i in range(1, 7))
GF5 = "exists p. " + " & ".join(f"G F b{i}_p" for i in range(1, 6))
X300_BODY = "X " * 300 + "a_p"
X300 = "exists p. " + X300_BODY


def large_automata(seed: int) -> list[Query]:
    """Paper fixtures and scaling members, half SAT and half UNSAT.  The
    verdicts are hand-written; the state counts are pinned at the seed."""
    unsat = expect_verdict("UNSAT")
    queries = [
        # weak observational determinism implies the box form (paper)
        Query("od-weak-box", implies_request(WEAK_OD, BOX_OD),
              expect_verdict("HOLDS"), 128),
        Query("od-box-weak", implies_request(BOX_OD, WEAK_OD),
              expect_countermodel(BOX_OD, WEAK_OD), 290),
        Query("e3a2-sat", sat_request(E3A2), expect_sat(E3A2), 135),
        # q1 := p1, q2 := p2 forces b_p2 right after the first a_p1
        Query("e3a2-unsat", sat_request(E3A2 + " & F a_p1 & G !b_p2"),
              unsat, 95),
        Query("gf6-sat", sat_request(GF), expect_sat(GF), 128),
        Query("gf5-fg-unsat", sat_request(GF5 + " & F G !b1_p"), unsat, 112),
        Query("x300-sat", sat_request(X300), expect_sat(X300), 302),
        Query("x300-unsat", sat_request(f"exists p. ({X300_BODY}) & G !a_p"),
              unsat, 300),
    ]
    random.Random(seed).shuffle(queries)
    return queries


def sat_mix(seed: int) -> list[Query]:
    """The pinned pool of random sat queries (see make_keys.py), in an
    order drawn from the seed."""
    queries = []
    for i, entry in enumerate(json.loads(KEYS.read_text())["sat_mix"]["queries"]):
        text = entry["text"]
        check = (expect_sat(text) if entry["verdict"] == "SAT"
                 else expect_verdict(entry["verdict"]))
        queries.append(Query(f"sat-mix-{i}", sat_request(text), check,
                             entry["states"]))
    random.Random(seed).shuffle(queries)
    return queries


def witness_lines(stones, indices) -> list[str]:
    """The witness trace set as the CLI prints it, built from the
    definition: for each d, stones d+1.. overlapped, first symbol of every
    word dotted, the shorter word padded with hash, then hash forever."""
    lines = []
    for d in range(len(indices) + 1):
        words = []
        for side in (0, 1):
            symbols = []
            for i in indices[d:]:
                word = stones[i - 1][side]
                symbols += ["d" + word[0], *word[1:]]
            words.append(symbols)
        span = max(len(w) for w in words)
        top, bottom = (w + ["hash"] * (span - len(w)) for w in words)
        stem = " ".join(f"{{p_{x}_{y}}}" for x, y in zip(top, bottom))
        lines.append(f"{stem} | {{p_hash_hash}}" if stem else "| {p_hash_hash}")
    return lines[::-1]  # the CLI sorts by stem length


def eval_pcp(seed: int) -> list[Query]:
    """Per pinned solvable instance: `encode-pcp --solution --json` (the
    formula and the witness in one request), eval of the witness (TRUE by
    construction) and eval of the witness without its first suffix trace
    (FALSE: the solution trace loses its companion).  The seed orders the
    instances; each instance's requests stay in pipeline order, the evals
    reading the encoder's printed outputs."""
    instances = json.loads(KEYS.read_text())["eval_pcp"]["instances"]
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    queries = []
    for n in order:
        inst = instances[n]
        instance_text = json.dumps(
            {"alphabet": inst["alphabet"], "stones": inst["stones"]}
        )
        solution_text = json.dumps({"indices": inst["indices"]})
        expected = witness_lines(inst["stones"], inst["indices"])
        suffix = expected[-2]  # the solution trace minus its first stone
        pipe: dict = {}

        def encode(api, instance_text=instance_text,
                   solution_text=solution_text, pipe=pipe):
            pipe.clear()
            instance = api.parse_instance(instance_text)
            formula = api.render(api.encode_pcp(instance))
            indices = api.parse_solution(solution_text)
            lines = api.model_lines(api.encode_solution(instance, indices))
            pipe.update(formula=formula, witness=lines)
            return "OK", (formula, lines), None

        def encoded_ok(verdict, output, expected=expected):
            formula, lines = output
            if not formula.startswith("forall pi. exists pis. exists pip. "):
                return "encoding lacks the forall-exists-exists prefix"
            if lines != expected:
                return "witness differs from its definition"
            return None

        def evaluate(api, drop=None, pipe=pipe):
            lines = [line for line in pipe["witness"] if line != drop]
            value = api.evaluate(
                api.parse_trace_set("\n".join(lines)), api.parse(pipe["formula"])
            )
            return ("TRUE" if value else "FALSE"), None, None

        def drop_suffix(api, evaluate=evaluate, suffix=suffix):
            return evaluate(api, suffix)

        queries += [
            Query(f"pcp-{n}-encode", encode, encoded_ok),
            Query(f"pcp-{n}-eval-true", evaluate, expect_verdict("TRUE"),
                  known_defect=inst["known_defect"]),
            Query(f"pcp-{n}-eval-false", drop_suffix, expect_verdict("FALSE")),
        ]
    return queries


WORKLOADS = {"large-automata": large_automata, "sat-mix": sat_mix,
             "eval-pcp": eval_pcp}


# ---------------------------------------------------------------------------
# Running and checking


class Run:
    def __init__(self, queries: list[Query]):
        self.queries = queries
        self.first: dict[str, tuple] = {}  # qid -> (signature, error) of pass 1
        self.times: dict[str, list[float]] = {}  # qid -> per pass, at reference speed
        self.raw: dict[str, list[float]] = {}  # qid -> per pass, wall time
        self.refs: list[float] = []  # reference-loop timings
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.notes: list[str] = []

    def one_pass(self, api: Api, tracer: Tracer | None = None) -> dict:
        """Run every query once; return the pass's per-layer totals.  The
        reference loop is timed before the pass and after every stretch of
        about CHECKPOINT_S of requests, which are scaled by the mean of the
        two timings around them.  Each checkpoint also runs a full garbage
        collection, outside the timed requests: a full collection owed by
        earlier requests would otherwise fall at random on a later one, and
        on the large eval-pcp heaps that made one query's time vary by 15%
        from pass to pass.  Collections the requests themselves cause are
        still timed."""
        layer_time = dict.fromkeys(LAYER_METRICS, 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        before = checkpoint()
        self.refs.append(before)
        chunk, chunk_layers = [], dict.fromkeys(LAYER_METRICS, 0.0)
        for i, q in enumerate(self.queries):
            request = tracer.wrap("request", q.request) if tracer else q.request
            t0 = perf_counter()
            try:
                verdict, output, stats = request(api)
                error = None
            except Exception as e:  # a raising request is a failed query
                verdict, output, stats = "ERROR", None, None
                error = f"raised {type(e).__name__}: {e}"
            chunk.append((q.qid, perf_counter() - t0))
            states = stats[1] if stats else None
            if tracer:
                self_time, query_counts = tracer.drain()
                for layer, seconds in self_time.items():
                    chunk_layers[layer] += seconds
                for name, value in query_counts.items():
                    counts[name] += value
                states = query_counts["ltl_engine.states"] or states
            self._judge(q, verdict, output, stats, states, error)
            if sum(t for _, t in chunk) >= CHECKPOINT_S or i == len(self.queries) - 1:
                after = checkpoint()
                self.refs.append(after)
                scale = speed.factor(before, after)
                for qid, seconds in chunk:
                    self.raw.setdefault(qid, []).append(seconds)
                    self.times.setdefault(qid, []).append(seconds * scale)
                for layer, seconds in chunk_layers.items():
                    layer_time[layer] += seconds * scale
                before = after
                chunk, chunk_layers = [], dict.fromkeys(LAYER_METRICS, 0.0)
        return {"time": layer_time, "counts": counts}

    def _judge(self, q, verdict, output, stats, states, error):
        self.attempted += 1
        digest = hashlib.sha256(repr(output).encode()).hexdigest()
        signature = (verdict, digest, stats)
        if error is None:
            first = self.first.get(q.qid)
            if first is None:
                try:
                    error = q.check(verdict, output)
                except Exception as e:  # an answer the checker cannot read
                    error = f"check raised {type(e).__name__}: {e}"
                self.first[q.qid] = (signature, error)
            elif first[0] != signature:
                error = "answer differs from the first pass"
            else:
                error = first[1]
        if (states is not None and q.pinned_states is not None
                and states != q.pinned_states):
            note = f"states of {q.qid}: pinned {q.pinned_states}, now {states}"
            if note not in self.notes:
                self.notes.append(note)
        if error is None:
            return
        self.failed += 1
        kind = self.known if q.known_defect and verdict == "FALSE" else self.unexpected
        message = f"{q.qid}: {error}"
        if message not in kind:
            kind.append(message)


def checkpoint() -> float:
    """Collect garbage, then time the reference loop."""
    gc.collect()
    return speed.reference_seconds()


def passes_within(run: Run, api: Api, budget: float) -> int:
    """Whole passes while the next one is expected to fit in the budget."""
    start = perf_counter()
    passes = 0
    while True:
        t0 = perf_counter()
        run.one_pass(api)
        passes += 1
        now = perf_counter()
        if now - start + (now - t0) > budget:
            return passes


def latency(times: dict, passes: slice = slice(None)) -> dict:
    """Throughput and latency percentiles over one time per query, its
    median over the given passes, so that the sample count is the number
    of queries however many passes ran."""
    samples = [statistics.median(per_query[passes]) for per_query in times.values()]
    return {
        "queries_per_s": len(samples) / sum(samples),
        "query_s.p50": statistics.median(samples),
        "query_s.p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
    }


def end_to_end(run: Run) -> dict:
    return {
        **latency(run.times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answered_share": 1 - run.failed / run.attempted,
    }


def per_layer(run: Run, passes: int) -> dict:
    """Untraced passes, then the same passes traced; per-pass layer totals
    from the traced ones."""
    tracer = Tracer()
    api = Api(tracer.wrap)
    totals = []
    with tracer.installed():
        for _ in range(passes):
            totals.append(run.one_pass(api, tracer))
    untraced = latency(run.times, slice(passes))["queries_per_s"]
    traced = latency(run.times, slice(passes, None))["queries_per_s"]
    out = {
        name: sum(t["time"][layer] for t in totals) / passes
        for layer, name in LAYER_METRICS.items()
    }
    counts = totals[0]["counts"]
    if any(t["counts"] != counts for t in totals):
        run.unexpected.append("per-layer counts differ between traced passes")
    for name in ("ltl_engine.states", "ltl_engine.transitions",
                 "ltl_engine.acceptance_sets", "syntax.nnf_nodes",
                 "reductions.conjuncts", "reductions.conjuncts_dedup",
                 "models.assignments"):
        out[name] = counts[name]
    tableau = out["ltl_engine.tableau_s"]
    out["ltl_engine.states_per_s"] = counts["ltl_engine.states"] / tableau if tableau else 0.0
    out["ltl_engine.lasso_len"] = (
        counts["ltl_engine.lasso_total"] / counts["ltl_engine.lassos"]
        if counts["ltl_engine.lassos"] else 0.0
    )
    out["models.eval_period"] = (
        counts["models.period_total"] / counts["models.evals"]
        if counts["models.evals"] else 0.0
    )
    self_total = sum(out[name] for name in LAYER_METRICS.values())
    out["ltl_engine.tableau_share"] = tableau / self_total
    out["trace.overhead_share"] = untraced / traced - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload](args.seed))
    api = Api()
    if args.trace:
        passes = passes_within(run, api, args.seconds / 2)
        metrics = per_layer(run, passes)
        passes *= 2
    else:
        passes = passes_within(run, api, args.seconds)
        metrics = end_to_end(run)
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "unexpected": run.unexpected[:20],
        "known_defect": run.known[:20],
        "notes": run.notes[:20],
        "passes": passes,
        "queries": len(run.times),
        "wall": latency(run.raw),
        "reference_s": statistics.median(run.refs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
