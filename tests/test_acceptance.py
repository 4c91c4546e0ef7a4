"""Acceptance gate: one test per shipping criterion, each self-timed
against its stated budget.  Run with -v to get one pass/fail line per
criterion."""

import itertools
import json
import random
import time

from hypersat.cli import main
from hypersat.implication import Fails, Holds, check_implication
from hypersat.ltl_engine import ltl_sat
from hypersat.models import (
    TraceSet,
    evaluate_hyperltl,
    evaluate_ltl,
)
from hypersat.pcp import PcpInstance, encode_pcp, encode_solution_traceset
from hypersat.reductions import (
    Substitution,
    project,
    unroll_universals,
)
from hypersat.solver import Sat, Unsat, hyper_sat, solve
from hypersat.syntax import (
    And,
    Atom,
    Const,
    Eventually,
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
    desugar,
    parse_hyperltl,
    render,
    to_nnf,
)

from generators import random_ltl, random_quantified, random_trace
from oracles import (
    bounded_lasso_sat,
    canonical_trace,
    naive_eval,
    zip_traces,
)

FORALL_GOLDEN = "forall p1. forall p2. (G b_p1) & (G !b_p2)"
EXISTS_GOLDEN = "exists p1. exists p2. a_p1 & (G !b_p1) & (G b_p2)"
WEAK_OD = "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))"
BOX_OD = "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"


def test_golden_universal_pair_is_unsat_within_one_second(tmp_path, capsys):
    start = time.monotonic()
    path = tmp_path / "od.hltl"
    path.write_text(FORALL_GOLDEN, encoding="utf-8")
    code = main(["sat", str(path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    assert out == "UNSAT\n"
    assert hyper_sat(parse_hyperltl(FORALL_GOLDEN)) == Unsat()
    assert elapsed < 1.0


def test_golden_existential_pair_sat_with_verified_model_within_one_second(
    tmp_path, capsys
):
    start = time.monotonic()
    path = tmp_path / "ex.hltl"
    path.write_text(EXISTS_GOLDEN, encoding="utf-8")
    code = main(["sat", str(path), "--model"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert len(lines) == 3

    result = hyper_sat(parse_hyperltl(EXISTS_GOLDEN))
    assert isinstance(result, Sat)
    assert result.verified

    # the known model itself must also pass the evaluator
    model_path = tmp_path / "model.txt"
    model_path.write_text("| {a}\n| {b}\n", encoding="utf-8")
    code = main(["eval", str(model_path), str(path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    assert out == "TRUE\n"
    assert elapsed < 1.0


def test_unrolling_conjunct_count_and_deduplicated_form_exact():
    four_block = parse_hyperltl(
        "exists p1. exists p2. forall q1. forall q2. "
        "((G a_q1) & (G b_q2)) & ((G c_p1) & (G d_p2))"
    )
    _, stats = solve(four_block)
    assert stats.conjuncts == 4

    simplifiable = parse_hyperltl(
        "exists p0. exists p1. forall p2. (X p_p0) & (G p_p1) & (F p_p2)"
    )
    assert solve(simplifiable)[1].conjuncts == 2  # n**m = 2**1
    unrolled = unroll_universals(simplifiable)
    target = parse_hyperltl(
        "exists p0. exists p1. (X p_p0) & (G p_p1) & (F p_p0) & (F p_p1)"
    )
    assert unrolled == target


def test_observational_determinism_variants_implication_within_ten_seconds():
    start = time.monotonic()
    weak = parse_hyperltl(WEAK_OD)
    box = parse_hyperltl(BOX_OD)

    assert check_implication(weak, box) == Holds()

    verdict = check_implication(box, weak)
    assert isinstance(verdict, Fails)
    assert len(verdict.countermodel) == 2
    assert evaluate_hyperltl(verdict.countermodel, box)
    assert not evaluate_hyperltl(verdict.countermodel, weak)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0


def test_correspondence_fixture_reproduced_and_refused_within_five_seconds(
    tmp_path, capsys
):
    start = time.monotonic()
    instance = PcpInstance(
        ("a", "b"), (("a", "baa"), ("ab", "aa"), ("bba", "bb"))
    )
    formula = encode_pcp(instance)
    witness = encode_solution_traceset(instance, [3, 2, 3, 1])
    assert len(witness) == 5
    assert evaluate_hyperltl(witness, formula)

    path = tmp_path / "pcp.hltl"
    path.write_text(render(formula), encoding="utf-8")
    code = main(["classify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "forall-exists\n"

    code = main(["sat", str(path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 3
    assert out.startswith("UNSUPPORTED: forall-exists")
    assert elapsed < 5.0


def _depth_limited_grid():
    """Exhaustive structured grid over two propositions: all leaves, all
    depth-1 formulas, every unary over a depth-1 binary, and every binary
    over two unary-wrapped atoms."""
    unary = (Not, Next, Eventually, Globally)
    binary = (And, Or, Implies, Iff, Until, WeakUntil, Release)
    leaves = [Atom("p"), Atom("q"), Const(True), Const(False)]
    atoms = [Atom("p"), Atom("q")]

    grid = list(leaves)
    unary_leaf = [op(x) for op in unary for x in leaves]
    binary_leaf = [op(x, y) for op in binary for x in leaves for y in leaves]
    grid += unary_leaf
    grid += binary_leaf
    grid += [op(b) for op in unary for b in binary_leaf]
    wrapped = [op(x) for op in unary for x in atoms]
    grid += [op(u, v) for op in binary for u in wrapped for v in wrapped]
    return grid


def test_engine_agrees_with_bounded_lasso_oracle_within_sixty_seconds():
    start = time.monotonic()
    grid = _depth_limited_grid()
    assert len(grid) == 1028

    disagreements = 0
    for phi in grid:
        witness = ltl_sat(phi)
        if witness is None:
            # the oracle must find nothing either
            if bounded_lasso_sat(phi, ("p", "q"), 3, 3) is not None:
                disagreements += 1
        else:
            if not evaluate_ltl(witness, desugar(phi)):
                disagreements += 1
            if not naive_eval(witness, phi):
                disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 60.0


def test_thousand_reduction_and_syntax_round_trips_zero_failures():
    rng = random.Random(20250815)
    failures = 0

    # 1,000 trace tuples: zip then project must reproduce the set
    for k in range(1000):
        arity = rng.randrange(1, 4)
        n_props = rng.randrange(1, 4)
        props = ("a", "b", "c")[:n_props]
        sub = Substitution(props, arity)
        if k < 700:
            stem_len = rng.randrange(5)
            loop_len = rng.randrange(1, 5)
            traces = [
                random_trace(rng, props, 0, 0, stem_len, loop_len)
                for _ in range(arity)
            ]
            if project(zip_traces(traces), sub) != TraceSet(
                frozenset(traces)
            ):
                failures += 1
        else:
            traces = [random_trace(rng, props, 4, 4) for _ in range(arity)]
            got = project(zip_traces(traces), sub)
            if set(map(canonical_trace, got)) != set(
                map(canonical_trace, traces)
            ):
                failures += 1

    # 1,000 formulas: parse-render identity plus normal-form equivalence
    for k in range(1000):
        if k < 500:
            phi = HyperFormula((), random_ltl(rng, ("p", "q"), 3))
            if parse_hyperltl(render(phi)) != phi:
                failures += 1
            normal = to_nnf(desugar(phi.body))
            for _ in range(3):
                lasso = random_trace(rng, ("p", "q"), 3, 3)
                if naive_eval(lasso, phi.body) != naive_eval(lasso, normal):
                    failures += 1
        else:
            n = rng.randrange(0, 3)
            m = rng.randrange(0 if n else 1, 3)
            phi = random_quantified(rng, ("p", "q"), 2, n, m)
            if parse_hyperltl(render(phi)) != phi:
                failures += 1
            normal = HyperFormula(phi.prefix, to_nnf(desugar(phi.body)))
            for _ in range(2):
                traces = frozenset(
                    random_trace(rng, ("p", "q"), 2, 2) for _ in range(2)
                )
                ts = TraceSet(traces)
                if evaluate_hyperltl(ts, phi) != evaluate_hyperltl(ts, normal):
                    failures += 1

    assert failures == 0


def test_every_sat_verdict_model_passes_the_evaluator_zero_failures():
    rng = random.Random(987654321)
    failures = 0
    sat_count = 0
    for k in range(520):
        if k < 200:
            phi = random_quantified(rng, ("p", "q"), 2, rng.randrange(1, 4), 0)
        elif k < 400:
            phi = random_quantified(rng, ("p", "q"), 2, 0, rng.randrange(1, 4))
        else:
            phi = random_quantified(
                rng, ("p", "q"), 2, rng.randrange(1, 3), rng.randrange(1, 3)
            )
        result = hyper_sat(phi)
        if isinstance(result, Sat):
            sat_count += 1
            if not result.verified:
                failures += 1
            if not evaluate_hyperltl(result.model, phi):
                failures += 1
    assert failures == 0
    assert sat_count >= 400  # the suite must actually exercise Sat paths
