"""Call-site spans for the traced run.

Spans are recorded around calls into each layer, from the benchmark's own
code: the benchmark calls the public library functions through an `Api`
table, and while tracing is installed the names that `hypersat.solver`
and `hypersat.implication` look up at call time are replaced by wrappers.
The defining modules are never patched, so recursive walkers inside a
layer (desugar, to_nnf, ...) do not hit a wrapper on every node.

A span is [layer, function, parent, start, end, args, result].  A layer's
self time is its spans' durations minus the time their child spans cover.
Counts are read from the recorded arguments and return values after the
request has finished, so no counting happens inside a timed span.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter

import hypersat.implication as implication
import hypersat.solver as solver
from hypersat import pcp
from hypersat.models import evaluate_hyperltl, format_trace, parse_trace_set
from hypersat.syntax import EXISTS, And, node_count, parse_hyperltl, render

# Names that solver.solve and implication.check_implication resolve in their
# own module namespace, with the layer each one belongs to.
SOLVER_CALLS = {
    "check_well_formed": "syntax.check",
    "classify": "fragments.classify",
    "drop_quantifiers": "reductions.reduce",
    "zip_exists": "reductions.reduce",
    "unroll_universals": "reductions.reduce",
    "desugar": "syntax.normalize",
    "to_nnf": "syntax.normalize",
    "build_automaton": "ltl_engine.tableau",
    "check_emptiness": "ltl_engine.emptiness",
    "extract_model": "models.extract",
    "evaluate_hyperltl": "models.verify",
}
IMPLICATION_CALLS = {"hyper_sat": "solver"}

# Layers, and the metric that reports each one's self time.
LAYER_METRICS = {
    layer: layer + "_s"
    for layer in (
        "syntax.parse", "syntax.render", "syntax.normalize", "syntax.check",
        "fragments.classify", "reductions.reduce", "ltl_engine.tableau",
        "ltl_engine.emptiness", "models.extract", "models.verify",
        "models.eval", "models.trace_parse", "models.format", "pcp.encode",
        "pcp.witness",
    )
} | {"solver": "solver.self_s", "implication": "implication.self_s",
     "request": "request.glue_s"}

COUNTS = (
    "ltl_engine.states",
    "ltl_engine.transitions",
    "ltl_engine.acceptance_sets",
    "ltl_engine.lassos",
    "ltl_engine.lasso_total",
    "syntax.nnf_nodes",
    "reductions.conjuncts",
    "reductions.conjuncts_dedup",
    "models.evals",
    "models.period_total",
    "models.assignments",
)


def model_lines(trace_set) -> list[str]:
    """What the CLI prints for a model, one trace per line."""
    return [format_trace(t) for t in trace_set.sorted()]


class Api:
    """The public library calls a CLI request makes, by role."""

    def __init__(self, wrap=None):
        w = wrap or (lambda layer, fn: fn)
        self.parse = w("syntax.parse", parse_hyperltl)
        self.render = w("syntax.render", render)
        self.solve = w("solver", solver.solve)
        self.check_implication = w("implication", implication.check_implication)
        self.model_lines = w("models.format", model_lines)
        self.parse_instance = w("pcp.encode", pcp.parse_instance)
        self.encode_pcp = w("pcp.encode", pcp.encode_pcp)
        self.parse_solution = w("pcp.witness", pcp.parse_solution)
        self.encode_solution = w("pcp.witness", pcp.encode_solution_traceset)
        self.parse_trace_set = w("models.trace_parse", parse_trace_set)
        self.evaluate = w("models.eval", evaluate_hyperltl)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        function = fn.__name__

        def traced(*args, **kwargs):
            span = [layer, function, stack[-1] if stack else None, 0.0, 0.0,
                    args, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[6] = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer calls made from inside solve and check_implication."""
        saved = []
        for module, calls in ((solver, SOLVER_CALLS),
                              (implication, IMPLICATION_CALLS)):
            for name, layer in calls.items():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(layer, original))
        try:
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def drain(self) -> tuple[dict, dict]:
        """Self time per layer and counts of the spans recorded since the
        last drain; drops the recorded arguments and results."""
        child_time = [0.0] * len(self.spans)
        for layer, _, parent, t0, t1, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        self_time: dict[str, float] = {}
        counts = dict.fromkeys(COUNTS, 0)
        for i, (layer, function, _, t0, t1, args, result) in enumerate(
            self.spans
        ):
            self_time[layer] = self_time.get(layer, 0.0) + (
                t1 - t0 - child_time[i]
            )
            _count(counts, layer, function, args, result)
        self.spans.clear()
        return self_time, counts


def _flatten_and(formula) -> list:
    parts, todo = [], [formula]
    while todo:
        f = todo.pop()
        if isinstance(f, And):
            todo += (f.right, f.left)
        else:
            parts.append(f)
    return parts


def _count(counts: dict, layer: str, function: str, args: tuple, result) -> None:
    if result is None:
        return
    if function == "build_automaton":
        counts["ltl_engine.states"] += len(result.states)
        counts["ltl_engine.transitions"] += sum(
            len(succs) for succs in result.transitions.values()
        )
        counts["ltl_engine.acceptance_sets"] += len(result.acceptance)
    elif function == "check_emptiness":
        counts["ltl_engine.lassos"] += 1
        counts["ltl_engine.lasso_total"] += len(result.stem) + len(result.loop)
    elif function == "to_nnf":
        counts["syntax.nnf_nodes"] += node_count(result)
    elif function == "unroll_universals":
        prefix = args[0].prefix
        n = sum(q == EXISTS for q, _ in prefix)
        counts["reductions.conjuncts"] += n ** (len(prefix) - n)
        counts["reductions.conjuncts_dedup"] += len(_flatten_and(result.body))
    elif layer == "models.eval":
        trace_set, formula = args[0], args[1]
        counts["models.evals"] += 1
        counts["models.period_total"] += math.lcm(
            *(len(t.loop) for t in trace_set)
        )
        counts["models.assignments"] += len(trace_set) ** len(formula.prefix)
