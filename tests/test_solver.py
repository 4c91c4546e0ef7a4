"""End-to-end satisfiability over the decidable fragments."""

import ast
import json
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from hypersat import implication, ltl_engine, models, solver, syntax
from hypersat.errors import ResourceLimit, WellFormednessError
from hypersat.fragments import ForallExists, MultiAlternation
from hypersat.models import (
    TraceSet,
    UltimatelyPeriodicTrace,
    evaluate_hyperltl,
)
from hypersat.solver import (
    Sat,
    SolverOptions,
    Unsat,
    UnsupportedFragment,
    hyper_sat,
    solve,
)
from hypersat.syntax import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Globally,
    HyperFormula,
    Not,
    parse_hyperltl,
)

from generators import SEEDED, SEEDS, random_ltl, random_quantified
from make_golden import GOLDEN, answer
from oracles import (
    all_valuations,
    enumerate_lassos,
    make_trace,
    rename_trace_variable,
)

FORALL_GOLDEN = "forall p1. forall p2. (G b_p1) & (G !b_p2)"
EXISTS_GOLDEN = "exists p1. exists p2. a_p1 & (G !b_p1) & (G b_p2)"


def test_forall_golden_unsat():
    assert hyper_sat(parse_hyperltl(FORALL_GOLDEN)) == Unsat()


def test_exists_golden_sat_and_verified():
    result = hyper_sat(parse_hyperltl(EXISTS_GOLDEN))
    assert isinstance(result, Sat)
    assert result.verified


def test_exists_golden_known_model_also_works():
    model = TraceSet(
        frozenset({make_trace([], [{"a"}]), make_trace([], [{"b"}])})
    )
    assert evaluate_hyperltl(model, parse_hyperltl(EXISTS_GOLDEN))


def test_forall_exists_refused():
    phi = parse_hyperltl("forall p. exists q. a_p & !a_q")
    result = hyper_sat(phi)
    assert isinstance(result, UnsupportedFragment)
    assert isinstance(result.fragment, ForallExists)
    assert "undecidable" in result.message


def test_multi_alternation_refused():
    phi = parse_hyperltl("exists p. forall q. exists r. a_p & a_q & a_r")
    result = hyper_sat(phi)
    assert isinstance(result, UnsupportedFragment)
    assert isinstance(result.fragment, MultiAlternation)


def test_exists_forall_route_satisfiable():
    phi = parse_hyperltl(
        "exists p0. exists p1. forall p2. (X p_p0) & (G p_p1) & (F p_p2)"
    )
    result, stats = solve(phi)
    assert isinstance(result, Sat)
    assert result.verified
    assert len(result.model) <= 2
    assert stats.conjuncts == 2
    assert stats.automaton_states > 0


def test_exists_forall_unsatisfiable():
    phi = parse_hyperltl("exists p. forall q. (G a_p) & (F !a_q)")
    assert hyper_sat(phi) == Unsat()


def test_blowup_raised_not_returned():
    phi = parse_hyperltl(
        "exists e1. exists e2. forall u1. forall u2. "
        "a_e1 & a_e2 & (a_u1 | a_u2)"
    )
    with pytest.raises(ResourceLimit) as exc:
        hyper_sat(phi, SolverOptions(unroll_limit=3))
    assert (exc.value.kind, exc.value.required, exc.value.limit) == (
        "unroll", 4, 3
    )
    assert str(exc.value) == "unrolling needs 4 conjuncts, limit is 3"


def test_verification_can_be_disabled():
    result = hyper_sat(
        parse_hyperltl(EXISTS_GOLDEN), SolverOptions(verify_models=False)
    )
    assert isinstance(result, Sat)
    assert not result.verified


def test_empty_prefix_rejected():
    with pytest.raises(WellFormednessError):
        hyper_sat(HyperFormula((), parse_hyperltl("G a").body))


def test_options_validated():
    with pytest.raises(ValueError):
        SolverOptions(unroll_limit=0)
    with pytest.raises(ValueError):
        SolverOptions(period_guard=0)


def test_forall_route_stats_have_no_conjuncts():
    _, stats = solve(parse_hyperltl(FORALL_GOLDEN))
    assert stats.conjuncts is None
    # every tableau state of G b & G !b is locally inconsistent
    assert stats.automaton_states == 0
    _, sat_stats = solve(parse_hyperltl("forall p. F b_p"))
    assert sat_stats.conjuncts is None
    assert sat_stats.automaton_states > 0


def test_deterministic_results():
    phi = parse_hyperltl(EXISTS_GOLDEN)
    first = hyper_sat(phi)
    for _ in range(3):
        assert hyper_sat(phi) == first


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_alternation_free_models_verify_random(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        phi = random_quantified(rng, ("p", "q"), 2, rng.randrange(1, 4), 0)
    else:
        phi = random_quantified(rng, ("p", "q"), 2, 0, rng.randrange(1, 4))
    result = hyper_sat(phi)
    if isinstance(result, Sat):
        assert result.verified
        assert evaluate_hyperltl(result.model, phi)


@settings(SEEDED, max_examples=60)
@given(SEEDS)
def test_exists_forall_models_verify_random(seed):
    rng = random.Random(seed)
    phi = random_quantified(
        rng, ("p", "q"), 2, rng.randrange(1, 3), rng.randrange(1, 3)
    )
    result = hyper_sat(phi)
    if isinstance(result, Sat):
        assert result.verified


# Two satisfiability identities of the paper's fragments, checked without
# brute force.  A one-variable body holds on some trace iff it holds on
# every trace of some (singleton) set, so exists and forall agree; and a
# forall-only formula has a model iff it has a singleton one, where every
# variable names the same trace.


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_exists_and_forall_of_one_variable_agree(seed):
    rng = random.Random(seed)
    body = random_ltl(rng, ("p", "q"), rng.randrange(1, 4), ("x",))
    verdicts = {
        isinstance(hyper_sat(HyperFormula(((quant, "x"),), body)), Sat)
        for quant in (EXISTS, FORALL)
    }
    assert len(verdicts) == 1


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_forall_pair_agrees_with_its_diagonal(seed):
    rng = random.Random(seed)
    body = random_ltl(rng, ("p", "q"), rng.randrange(1, 4), ("x", "y"))
    pair = HyperFormula(((FORALL, "x"), (FORALL, "y")), body)
    diagonal = HyperFormula(
        ((EXISTS, "x"),), rename_trace_variable(body, "y", "x")
    )
    assert isinstance(hyper_sat(pair), Sat) == isinstance(
        hyper_sat(diagonal), Sat
    )


# exists x exists y. phi(x) & psi(y) has a model iff exists x. phi and
# exists y. psi both have one: the union of their models.  Unlike the two
# relations above, it binds two existential traces, which the zipped
# alphabet must keep apart.


def _independent_pair_agrees(phi, psi):
    pair = HyperFormula(((EXISTS, "x"), (EXISTS, "y")), And(phi, psi))
    alone = [
        isinstance(hyper_sat(HyperFormula(((EXISTS, var),), body)), Sat)
        for var, body in (("x", phi), ("y", psi))
    ]
    return isinstance(hyper_sat(pair), Sat) == all(alone)


def test_independent_pair_needs_two_traces():
    # G a and G !a: each alone is satisfiable, together only on two traces
    phi = Globally(Atom("a", "x"))
    psi = Globally(Not(Atom("a", "y")))
    assert _independent_pair_agrees(phi, psi)
    result = hyper_sat(HyperFormula(((EXISTS, "x"), (EXISTS, "y")),
                                    And(phi, psi)))
    assert isinstance(result, Sat) and len(result.model) == 2


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_independent_pair_agrees_with_its_halves(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, ("p", "q"), rng.randrange(1, 4), ("x",))
    psi = random_ltl(rng, ("p", "q"), rng.randrange(1, 4), ("y",))
    assert _independent_pair_agrees(phi, psi)



# Two relations of exists blocks, on random bodies over x and y (and z).
# A solver that zipped every trace into one would decide each body on its
# diagonal, where all variables name one trace, and keep both relations;
# so each draw must also hold bodies whose verdict differs from their
# diagonal's, the bodies that need distinct traces.  A body is four random
# conjuncts, which often clash on the diagonal.


def _clashing_body(rng, variables):
    parts = [random_ltl(rng, ("p", "q"), 2, variables, False)
             for _ in range(4)]
    return And(And(parts[0], parts[1]), And(parts[2], parts[3]))


def _exists_sat(variables, body) -> bool:
    prefix = tuple((EXISTS, v) for v in variables)
    return isinstance(hyper_sat(HyperFormula(prefix, body)), Sat)


def _diagonal(body, variables):
    """The body with every variable renamed to the first."""
    for v in variables[1:]:
        body = rename_trace_variable(body, v, variables[0])
    return body


def test_pair_is_sat_when_its_diagonal_is():
    # exists x. phi(x, x) SAT implies exists x. exists y. phi(x, y) SAT
    rng = random.Random(18)
    apart = 0
    for _ in range(150):
        body = _clashing_body(rng, ("x", "y"))
        pair = _exists_sat(("x", "y"), body)
        diagonal = _exists_sat(("x",), _diagonal(body, ("x", "y")))
        assert pair or not diagonal, body
        apart += pair != diagonal
    assert apart >= 5


def test_permuting_an_exists_block_keeps_the_verdict():
    rng = random.Random(18)
    variables = ("x", "y", "z")
    apart = 0
    for _ in range(60):
        body = _clashing_body(rng, variables)
        verdicts = {
            _exists_sat(order, body)
            for order in itertools.permutations(variables)
        }
        assert len(verdicts) == 1, body
        apart += verdicts != {
            _exists_sat(variables[:1], _diagonal(body, variables))
        }
    assert apart >= 3


def brute_force_exists_forall(phi, props, n):
    """Search all trace sets of at most n lassos with tiny stems and loops.
    A hit is a sound Sat certificate; exhaustion proves nothing."""
    lassos = list(enumerate_lassos(props, 1, 2))
    for count in range(1, n + 1):
        for combo in itertools.combinations(lassos, count):
            if evaluate_hyperltl(TraceSet(frozenset(combo)), phi):
                return True
    return False


@settings(SEEDED, max_examples=25)
@given(SEEDS)
def test_exists_forall_agrees_with_brute_force_sat_direction(seed):
    rng = random.Random(seed)
    phi = random_quantified(rng, ("p",), 2, 2, rng.randrange(1, 3))
    if brute_force_exists_forall(phi, ("p",), 2):
        result = hyper_sat(phi)
        assert isinstance(result, Sat)


def test_tracer_patch_names_resolve():
    # perfbench/spans.py replaces these names inside hypersat.solver and
    # hypersat.implication while it traces; the file is read, not imported
    source = Path(__file__).parent.parent / "perfbench" / "spans.py"
    tables = {}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SOLVER_CALLS", "IMPLICATION_CALLS"):
                tables[name] = ast.literal_eval(node.value)
    assert tables["SOLVER_CALLS"] and tables["IMPLICATION_CALLS"]
    for module, calls in (
        (solver, tables["SOLVER_CALLS"]),
        (implication, tables["IMPLICATION_CALLS"]),
    ):
        for name in calls:
            assert callable(getattr(module, name, None)), (module, name)


# The sugar connectives, as they appear in a rendered text.
SUGAR_TOKENS = {"->": " -> ", "<->": " <-> ", "W": " W ", "F": "F ", "G": "G "}


def test_solve_and_implication_make_no_walk(monkeypatch):
    # A parsed sat or implies request reduces, desugars, normalizes and
    # indexes the parsed tables, so no walk over a formula is made: the
    # golden corpus answers as recorded with the walk made to fail.  The
    # sat requests cover every decidable prefix with every sugar
    # connective.
    def walk(*_):
        raise AssertionError("a walk over a formula on the sat path")

    # syntax alone binds core_table; the others are patched too, so a
    # walk they came to make by an import of it would still be caught
    for module in (syntax, models, ltl_engine):
        monkeypatch.setattr(module, "core_table", walk, raising=False)
    covered = set()
    for name in ("sat_mix.jsonl", "large_automata.jsonl", "implies.jsonl"):
        for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
            recorded = json.loads(line)
            assert answer(recorded["text"]) == recorded, recorded["text"]
            text = recorded["text"]
            if isinstance(text, str):
                quantifiers = {q for q, _ in parse_hyperltl(text).prefix}
                for sugar, token in SUGAR_TOKENS.items():
                    if token in text:
                        covered.add((tuple(sorted(quantifiers)), sugar))
    assert covered == {
        (quantifiers, sugar)
        for quantifiers in ((EXISTS,), (FORALL,), (EXISTS, FORALL))
        for sugar in SUGAR_TOKENS
    }


def _count_checks_and_walks(monkeypatch) -> dict[str, int]:
    """Calls of the well-formedness rule on atom rows, and of the walk
    over a body, counted from now on."""
    counts = {"_check_atoms": 0, "core_table": 0}

    def counted(name):
        original = getattr(syntax, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    for name in counts:
        monkeypatch.setattr(syntax, name, counted(name))
    return counts


def test_each_formula_is_checked_once_and_walked_at_most_once(monkeypatch):
    # A parsed formula carries the table the parser checked, so no entry
    # point checks it again; a formula built by hand is walked and checked
    # once, by the first check_well_formed, which keeps the table
    counts = _count_checks_and_walks(monkeypatch)
    line = answer("exists p. exists q. G (a_p <-> !a_q) & F b_p")
    assert line["verdict"] == "SAT" and line["verified"] is True
    assert counts == {"_check_atoms": 1, "core_table": 0}

    counts = _count_checks_and_walks(monkeypatch)
    assert answer(["forall p. F a_p", "forall p. G a_p"])["verdict"] == "FAILS"
    assert counts == {"_check_atoms": 2, "core_table": 0}

    counts = _count_checks_and_walks(monkeypatch)
    trace = UltimatelyPeriodicTrace((), (frozenset("a"),))
    model = TraceSet(frozenset({trace}))
    assert evaluate_hyperltl(model, parse_hyperltl("forall p. G F a_p"))
    assert counts == {"_check_atoms": 1, "core_table": 0}

    phi = HyperFormula(
        ((EXISTS, "p"), (FORALL, "q")),
        And(Globally(Atom("a", "p")), Not(Atom("b", "q"))),
    )
    counts = _count_checks_and_walks(monkeypatch)
    result, _ = solve(phi)
    assert isinstance(result, Sat) and result.verified
    assert counts == {"_check_atoms": 1, "core_table": 1}


def test_solve_and_implication_make_no_desugared_table(monkeypatch):
    # to_nnf expands the sugar rows it reaches, so a sat or implies request
    # makes no desugared table on the way from the reduction to the
    # tableau: the golden corpus answers as recorded with that pass made
    # to fail
    def desugared(*_):
        raise AssertionError("a desugared table on the sat path")

    monkeypatch.setattr(syntax, "_desugared", desugared)
    for name in ("sat_mix.jsonl", "large_automata.jsonl", "implies.jsonl"):
        for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
            recorded = json.loads(line)
            assert answer(recorded["text"]) == recorded, recorded["text"]
