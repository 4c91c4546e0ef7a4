"""Trace representations, the evaluator, and model extraction."""

import gc
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from hypersat import ltl_engine, models, syntax
from hypersat.errors import ParseError, ResourceLimit, WellFormednessError
from hypersat.fragments import classify
from hypersat.implication import Fails, Holds, check_implication
from hypersat.ltl_engine import build_automaton, ltl_sat
from hypersat.models import (
    TraceSet,
    UltimatelyPeriodicTrace,
    evaluate_hyperltl,
    evaluate_ltl,
    format_trace,
    parse_trace,
    parse_trace_set,
)
from hypersat.pcp import encode_pcp, encode_solution_traceset, parse_instance
from hypersat.reductions import (
    LtlReduction,
    Substitution,
    drop_quantifiers,
    extract_model,
    unroll_universals,
    zip_exists,
)
from hypersat.solver import solve
from hypersat.syntax import (
    And,
    Atom,
    EXISTS,
    FALSE,
    FORALL,
    Eventually,
    Globally,
    HyperFormula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Until,
    WeakUntil,
    _ARITY,
    check_well_formed,
    core_table,
    desugar,
    node_count,
    parse_hyperltl,
    render,
    to_nnf,
)

from generators import (
    SEEDED,
    SEEDS,
    SIX_STONES,
    random_ltl,
    random_trace,
    random_trace_set,
)
from oracles import (
    canonical_trace,
    enumerate_lassos,
    make_trace,
    naive_eval,
    naive_eval_hyper,
    naive_holds,
    reference_desugar,
    reference_fold,
    reference_listing,
    reference_parse,
    trace_tail,
)

PROPS = ("p", "q")


def tr(stem, loop):
    return make_trace(stem, loop)


def test_valuation_indexing():
    t = tr([{"p"}, {"q"}], [{"p", "q"}, set()])
    assert t.valuation_at(0) == frozenset({"p"})
    assert t.valuation_at(1) == frozenset({"q"})
    assert t.valuation_at(2) == frozenset({"p", "q"})
    assert t.valuation_at(3) == frozenset()
    assert t.valuation_at(4) == frozenset({"p", "q"})


def test_empty_loop_rejected():
    with pytest.raises(ValueError):
        UltimatelyPeriodicTrace((), ())


def test_empty_trace_set_rejected():
    with pytest.raises(ValueError):
        TraceSet(frozenset())


def test_canonical_minimizes_period_and_stem():
    assert canonical_trace(tr([], [{"p"}, {"p"}])) == tr([], [{"p"}])
    assert canonical_trace(tr([{"p"}], [{"p"}])) == tr([], [{"p"}])
    assert canonical_trace(tr([{"q"}], [{"p"}, {"p"}])) == tr(
        [{"q"}], [{"p"}]
    )
    rotated = tr([{"q"}, {"p"}], [{"q"}, {"p"}])
    assert canonical_trace(rotated) == tr([], [{"q"}, {"p"}])


def test_canonical_preserves_meaning():
    t = tr([{"p"}, {"q"}], [{"p"}, {"q"}, {"p"}, {"q"}])
    c = canonical_trace(t)
    for i in range(12):
        assert t.valuation_at(i) == c.valuation_at(i)


def test_eventually_on_loop():
    t = tr([set()], [{"p"}])
    assert evaluate_ltl(t, desugar(Eventually(Atom("p"))))
    assert not evaluate_ltl(t, Atom("p"))


def test_until_across_stem():
    t = tr([{"p"}, {"p"}], [{"q"}])
    assert evaluate_ltl(t, Until(Atom("p"), Atom("q")))


def test_globally_requires_loop():
    t = tr([{"p"}], [{"p"}, set()])
    assert not evaluate_ltl(t, desugar(Globally(Atom("p"))))
    assert evaluate_ltl(tr([], [{"p"}]), desugar(Globally(Atom("p"))))


def test_zipped_golden_trace_satisfies_zipped_formula():
    t = tr([], [{"a@1", "b@2"}])
    phi = desugar(
        And(
            And(Atom("a@1"), Globally(Not(Atom("b@1")))),
            Globally(Atom("b@2")),
        )
    )
    assert evaluate_ltl(t, phi)


def test_evaluate_ltl_rejects_indexed_atoms():
    with pytest.raises(WellFormednessError):
        evaluate_ltl(tr([], [{"a"}]), Atom("a", "pi"))


def test_evaluate_ltl_takes_sugar_and_rejects_indexed_atoms():
    # sugar rows are evaluated as they stand; an indexed atom is refused
    # with or without sugar around it, by check_well_formed's rule
    t = tr([], [{"a"}])
    sugar = Eventually(Atom("a"))
    assert evaluate_ltl(t, sugar) is True
    assert evaluate_hyperltl(TraceSet(frozenset({t})), HyperFormula((), sugar))
    phi = And(Atom("a", "pi"), Eventually(Atom("a")))
    message = "indexed atom 'a' in an unquantified formula"
    for formula in (phi, desugar(phi)):
        with pytest.raises(WellFormednessError, match=message):
            evaluate_ltl(t, formula)


@settings(SEEDED, max_examples=250)
@given(SEEDS)
def test_evaluate_ltl_on_sugar_matches_the_naive_evaluator_random(seed):
    rng = random.Random(seed)
    t = random_trace(rng, PROPS, 3, 3)
    phi = random_ltl(rng, PROPS, 4)
    assert evaluate_ltl(t, phi) == naive_eval(t, reference_desugar(phi))


# Hand-built formulas reach the evaluator unchecked by the parser; each
# fault must be reported as check_well_formed reports it, where several
# faults compete too.
UNCHECKED = [
    (
        HyperFormula(((EXISTS, "x"), (FORALL, "x")), Not("b")),
        WellFormednessError,
        "duplicate trace variable in prefix",
    ),
    (
        HyperFormula((("some", "x"),), Eventually(Atom("a", "x"))),
        WellFormednessError,
        "unknown quantifier 'some'",
    ),
    (
        HyperFormula(
            ((EXISTS, "x"),),
            Iff(Atom("a", "z"), And(Atom("b"), Globally(Atom("a", "y")))),
        ),
        WellFormednessError,
        "unbound trace variable 'y'",
    ),
    (
        HyperFormula(
            ((EXISTS, "x"),),
            Implies(Atom("a", "x"), WeakUntil(Atom("b"), Atom("c"))),
        ),
        WellFormednessError,
        "atom 'b' lacks a trace index in a quantified formula",
    ),
    (
        HyperFormula((), Or(Atom("a"), Globally(Atom("b", "x")))),
        WellFormednessError,
        "indexed atom 'b' in an unquantified formula",
    ),
    (
        HyperFormula(((EXISTS, "x"),), And(Atom("a", "x"), Eventually(5))),
        TypeError,
        "not a formula node: 5",
    ),
]


@pytest.mark.parametrize("formula, error, message", UNCHECKED)
def test_evaluation_reports_faults_as_check_well_formed(
    formula, error, message
):
    model = TraceSet(frozenset({tr([], [{"a"}])}))
    with pytest.raises(error) as checked:
        check_well_formed(formula)
    with pytest.raises(error) as evaluated:
        evaluate_hyperltl(model, formula)
    assert str(checked.value) == str(evaluated.value) == message


# Every other function that takes a HyperFormula reads its table through
# check_well_formed, so each reports the same fault, first.
WELL_FORMED = parse_hyperltl("forall p. G a_p")
GATED = {
    "solve": solve,
    "implies-antecedent": lambda f: check_implication(f, WELL_FORMED),
    "implies-consequent": lambda f: check_implication(WELL_FORMED, f),
    "desugar": desugar,
    "to_nnf": to_nnf,
    "render": render,
    "node_count": node_count,
    "build_automaton": build_automaton,
    "classify": classify,
}


@pytest.mark.parametrize("name", sorted(GATED))
@pytest.mark.parametrize("formula, error, message", UNCHECKED)
def test_entry_points_report_faults_as_check_well_formed(
    formula, error, message, name
):
    with pytest.raises(error) as raised:
        GATED[name](formula)
    assert str(raised.value) == message


def _requantified(formula, quantifiers):
    """The formula under the quantifiers, in order, over its variables and
    then a variable 'w' more."""
    variables = [v for _, v in formula.prefix] + ["w"]
    return HyperFormula(tuple(zip(quantifiers, variables)), formula.body)


# Each reduction and the quantifiers that move each fault of UNCHECKED
# with a prefix, in order, into the reduction's fragment, so that were
# classify's own check dropped, the reduction would take the fault past
# it; no exists-only prefix holds an unknown quantifier.
REDUCTION_FAULTS = [
    (reduce, _requantified(formula, quantifiers), error, message)
    for reduce, moves in (
        (
            drop_quantifiers,
            [(FORALL, FORALL), ("some",), (FORALL,), (FORALL,), (FORALL,)],
        ),
        (
            zip_exists,
            [(EXISTS, EXISTS), None, (EXISTS,), (EXISTS,), (EXISTS,)],
        ),
        (
            unroll_universals,
            [(EXISTS, FORALL), (EXISTS, "some")] + [(EXISTS, FORALL)] * 3,
        ),
    )
    for (formula, error, message), quantifiers in zip(
        [case for case in UNCHECKED if case[0].prefix], moves, strict=True
    )
    if quantifiers is not None
]


@pytest.mark.parametrize("reduce, formula, error, message", REDUCTION_FAULTS)
def test_reductions_report_faults_as_check_well_formed(
    reduce, formula, error, message
):
    # classify reads no prefix of a formula that is not well formed
    for run in (classify, reduce):
        with pytest.raises(error) as raised:
            run(formula)
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "formula, error, message",
    [case for case in UNCHECKED if not case[0].prefix],
)
def test_plain_ltl_reports_faults_as_check_well_formed(
    formula, error, message
):
    # evaluate_ltl and ltl_sat take a body as the empty-prefix formula
    for run in (
        lambda: evaluate_ltl(tr([], [{"a"}]), formula.body),
        lambda: ltl_sat(formula.body),
    ):
        with pytest.raises(error) as raised:
            run()
        assert str(raised.value) == message


def test_evaluation_compiles_without_the_separate_walks(monkeypatch):
    # the body is checked once, by the check that gives the table the
    # evaluator reads, and it is neither desugared nor walked
    checked = []
    check = syntax.check_well_formed

    def counted(formula):
        checked.append(formula)
        return check(formula)

    def walk(*_):
        raise AssertionError("a separate walk over the formula")

    monkeypatch.setattr(syntax, "check_well_formed", counted)
    monkeypatch.setattr(syntax, "desugar", walk)
    monkeypatch.setattr(syntax, "core_table", walk)
    model = TraceSet(frozenset({tr([], [{"a"}])}))
    for text in ("exists p. G F a_p", "F a -> G a"):
        phi = parse_hyperltl(text)
        assert evaluate_hyperltl(model, phi)
        assert checked == [phi]
        checked.clear()


def _six_stones():
    """The 65 KB encoding of the six-stone instance as printed text, and
    the witness of its solution 1, 2: three traces, each of them needed."""
    witness = encode_solution_traceset(SIX_STONES, [1, 2]).sorted()
    return render(encode_pcp(SIX_STONES)), witness


def test_parsed_formula_evaluates_without_a_walk(monkeypatch):
    # the parser builds the table that evaluation reads, so neither
    # parsing nor evaluating walks the formula
    text, witness = _six_stones()

    def walk(*_):
        raise AssertionError("a walk over the formula")

    # syntax alone binds core_table; the others are patched too, so a
    # walk they came to make by an import of it would still be caught
    for module in (syntax, models, ltl_engine):
        monkeypatch.setattr(module, "core_table", walk, raising=False)
    phi = parse_hyperltl(text)
    assert evaluate_hyperltl(TraceSet(frozenset(witness)), phi) is True
    assert evaluate_hyperltl(TraceSet(frozenset(witness[1:])), phi) is False


def test_one_parsed_formula_evaluates_again_and_again():
    # evaluation reads the parsed table without writing into it
    text, witness = _six_stones()
    phi = parse_hyperltl(text)
    for model, value in [
        (witness, True), (witness[:2], False), (witness, True),
        (witness[1:], False),
    ]:
        assert evaluate_hyperltl(TraceSet(frozenset(model)), phi) is value
    phi = parse_hyperltl("exists p. exists q. G (a_p <-> !a_q) & F b_p")
    result, _ = solve(phi)
    assert result.verified
    assert evaluate_hyperltl(result.model, phi) is True
    same = TraceSet(frozenset({tr([{"a", "b"}], [{"a"}])}))
    assert evaluate_hyperltl(same, phi) is False
    assert evaluate_hyperltl(result.model, phi) is True


def test_parsed_formula_evaluates_without_building_its_body(monkeypatch):
    # evaluation reads only the parsed table, so the body's tree is made
    # on its first read, and then it is the reference parser's tree
    text, witness = _six_stones()

    def build(*_):
        raise AssertionError("the tree of a parsed body was built")

    monkeypatch.setattr(syntax, "_nodes", build)
    phi = parse_hyperltl(text)
    assert evaluate_hyperltl(TraceSet(frozenset(witness)), phi) is True
    assert evaluate_hyperltl(TraceSet(frozenset(witness[1:])), phi) is False
    monkeypatch.undo()
    # the reference parser recurses about 8 frames per parenthesis
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        reference = reference_parse(text)
    finally:
        sys.setrecursionlimit(limit)
    assert phi.body == reference.body
    assert phi == reference


def test_solve_and_implication_build_no_parsed_body(monkeypatch):
    # the reductions, desugar, to_nnf and the tableau read the parsed
    # tables, so no tree of a parsed body is made until the body is read
    built = []  # each table whose nodes were made
    build = syntax._nodes

    def counted(table):
        built.append(id(table))
        return build(table)

    monkeypatch.setattr(syntax, "_nodes", counted)
    for text in (
        "exists p. exists q. G (a_p <-> !a_q) & F b_p",
        "exists p. forall q. G (a_q -> X a_p)",
        "forall p. F a_p & G !a_p",
        "forall p. exists q. G a_p",  # refused from its prefix
    ):
        phi = parse_hyperltl(text)
        solve(phi)
        assert built == []
        assert phi.body is phi.body
        assert built == [id(check_well_formed(phi))]
        built.clear()
    for left, right, verdict in (
        ("forall p. G a_p", "forall p. F a_p", Holds),
        ("exists p. F a_p", "exists p. G a_p", Fails),
        ("forall p. G (a_p -> X b_p)", "exists q. F a_q", Fails),
    ):
        antecedent, consequent = parse_hyperltl(left), parse_hyperltl(right)
        assert isinstance(check_implication(antecedent, consequent), verdict)
        assert built == []


def test_parse_evaluate_and_solve_leave_no_cycles():
    # a parsed formula holds its table, and the table its nodes; nothing
    # may point back, or every parse waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        phi = parse_hyperltl("forall p. exists q. G (a_p -> F b_q)")
        assert evaluate_hyperltl(parse_trace_set("| {a,b}"), phi)
        for text in (
            "exists p. exists q. G (a_p <-> !a_q) & F b_p",
            "exists p. forall q. G (a_q -> X a_p)",
            "forall p. F a_p & G !a_p",
        ):
            solve(parse_hyperltl(text))
        del phi
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sugar_chain_verdict_matches_the_naive_evaluator():
    # the chain and model of the CI's linear-evaluation step: 41 atoms
    # under <->, with ->, W, F and G; every trace refutes it, so FALSE
    text = (
        "exists p. (a0_p -> F a1_p) <-> (a2_p W G a3_p) <-> "
        + " <-> ".join(f"a{i}_p" for i in range(4, 41))
    )
    model = parse_trace_set(
        "| {a1,a3}\n{a0,a2,a4} | {a3}\n{a2} | {a3}\n| {"
        + ",".join(f"a{i}" for i in range(0, 41, 2))
        + "}"
    )
    phi = parse_hyperltl(text)
    naive = [naive_eval_hyper({"p": t}, phi.body) for t in model]
    assert naive == [False] * 4
    assert evaluate_hyperltl(model, phi) is False


def _assert_sugar_rows_agree(traces, phi, expected=None):
    """A parsed formula, whose table holds its sugar as rows of their own,
    evaluates as its body desugared by hand and as naive_eval_hyper."""
    ts = TraceSet(frozenset(traces))
    value = evaluate_hyperltl(ts, phi)
    # the values are named, so that a failure prints no formula
    by_hand = evaluate_hyperltl(ts, HyperFormula(phi.prefix, desugar(phi.body)))
    naive = naive_holds(ts.sorted(), phi)
    assert value == by_hand == naive
    if expected is not None:
        assert value is expected


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_sugar_rows_evaluate_as_desugared_random(seed):
    rng = random.Random(seed)
    variables = ("x", "y")[: rng.randint(1, 2)]
    prefix = tuple((rng.choice((FORALL, EXISTS)), v) for v in variables)

    def part():
        return random_ltl(rng, PROPS, rng.randrange(3), variables)

    # all five sugar connectives around random parts that may hold more
    # of them, one operand shared by several
    shared = part()
    sugar = [
        Implies(part(), shared),
        Iff(shared, part()),
        WeakUntil(part(), shared),
        WeakUntil(shared, Next(part())),
        Globally(Implies(shared, part())),
        Eventually(Iff(part(), shared)),
    ]
    rng.shuffle(sugar)
    body = sugar[0]
    for other in sugar[1:]:
        body = rng.choice((And, Or, Until, Iff, Implies, WeakUntil))(
            body, other
        )
    phi = parse_hyperltl(render(HyperFormula(prefix, body)))
    traces = random_trace_set(rng, PROPS, rng.randint(1, 3), 2, 3).sorted()
    _assert_sugar_rows_agree(traces, phi)


def _globally_as_weak_until(formula):
    """The formula with every G e written as e W false."""
    build = {t: t for t, arity in _ARITY.items() if arity}
    build[Globally] = lambda e: WeakUntil(e, FALSE)
    return reference_fold(*reference_listing(formula), build)


def test_sugar_rows_evaluate_as_desugared_on_pcp_encodings():
    # the eight correspondence encodings of the eval-pcp benchmark, parsed
    # back from their printed text as an evaluation reads them: their
    # witnesses hold, and fail without the solution trace minus its first
    # stone; so they do with each G written as a W
    keys = Path(__file__).parent.parent / "perfbench" / "keys.json"
    instances = json.loads(keys.read_text(encoding="utf-8"))["eval_pcp"]
    assert len(instances["instances"]) == 8
    # the naive evaluator and the reference fold recurse per nesting level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        for inst in instances["instances"]:
            instance = parse_instance(json.dumps(
                {"alphabet": inst["alphabet"], "stones": inst["stones"]}
            ))
            encoded = encode_pcp(instance)
            phi = parse_hyperltl(render(encoded))
            weak = parse_hyperltl(render(HyperFormula(
                encoded.prefix, _globally_as_weak_until(encoded.body)
            )))
            witness = encode_solution_traceset(
                instance, inst["indices"]
            ).sorted()
            for traces, expected in (
                (witness, True), (witness[:-2] + witness[-1:], False)
            ):
                _assert_sugar_rows_agree(traces, phi, expected)
                value = evaluate_hyperltl(TraceSet(frozenset(traces)), weak)
                assert value is expected
    finally:
        sys.setrecursionlimit(limit)


def test_sugar_chain_has_two_rows_per_link():
    # each <-> link is one row beside its new atom's, in the parsed table
    # and in a walk's over the body, though as a tree the chain's core
    # form has about 2**41 nodes; a W at its head, which a U in its place
    # would falsify, and the chain's value agree with the naive evaluator
    depth = 41
    text = "forall p. (a0_p W b_p) <-> " + " <-> ".join(
        f"a{i}_p" for i in range(1, depth)
    )
    phi = parse_hyperltl(text)
    for table in (check_well_formed(phi), core_table(phi.body)):
        ops, _, _, root = table
        assert len(ops) == 3 + 2 * (depth - 1)
        assert ops.count(syntax.IFF) == depth - 1
        assert root == len(ops) - 1
    model = [tr([], [{"a0"}]), tr([{"a0"}], [{"b", "a1"}])]
    _assert_sugar_rows_agree(model, phi, True)


def test_shared_subformulas_evaluated_once():
    # desugaring an iff references each operand twice, so 41 nested iffs
    # form a tree of 2**41 nodes over a DAG of about 200; (p <-> q) <-> q
    # is p, so an odd nesting depth leaves p <-> q
    phi = Atom("p")
    for _ in range(41):
        phi = Iff(phi, Atom("q"))
    phi = desugar(phi)
    for p, q in itertools.product((False, True), repeat=2):
        first = {name for name, on in (("p", p), ("q", q)) if on}
        t = tr([first], [{"q"}, set()])
        assert evaluate_ltl(t, phi) == (p == q)


def test_position_shift_coherence():
    t = tr([{"p"}], [{"q"}, set()])
    phi = desugar(Eventually(And(Atom("q"), Next(Atom("q")))))
    assert evaluate_ltl(t, Next(phi)) == evaluate_ltl(trace_tail(t), phi)


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_position_shift_coherence_random(seed):
    rng = random.Random(seed)
    t = random_trace(rng, PROPS, 3, 3)
    phi = desugar(random_ltl(rng, PROPS, 3))
    assert evaluate_ltl(t, Next(phi)) == evaluate_ltl(trace_tail(t), phi)


def test_evaluator_agrees_with_unrolled_semantics_exhaustive():
    rng = random.Random(20240101)
    formulas = [desugar(random_ltl(rng, PROPS, 3)) for _ in range(60)]
    for t in enumerate_lassos(PROPS, 2, 2):
        for phi in formulas:
            assert evaluate_ltl(t, phi) == naive_eval(t, phi)


@settings(SEEDED, max_examples=250)
@given(SEEDS)
def test_evaluator_agrees_with_unrolled_semantics_random(seed):
    rng = random.Random(seed)
    t = random_trace(rng, PROPS, 3, 3)
    phi = desugar(random_ltl(rng, PROPS, 3))
    assert evaluate_ltl(t, phi) == naive_eval(t, phi)


def test_hyper_exists_golden_pair():
    model = TraceSet(frozenset({tr([], [{"a"}]), tr([], [{"b"}])}))
    phi = parse_hyperltl("exists p1. exists p2. a_p1 & (G !b_p1) & (G b_p2)")
    assert evaluate_hyperltl(model, phi)


def test_hyper_forall_pair_unsatisfied_by_any_singleton():
    phi = parse_hyperltl("forall p1. forall p2. (G b_p1) & (G !b_p2)")
    for t in (tr([], [{"b"}]), tr([], [set()]), tr([{"b"}], [set()])):
        assert not evaluate_hyperltl(TraceSet(frozenset({t})), phi)


def test_hyper_quantifiers_enumerate_all_assignments():
    # exists needs some trace, forall needs every trace
    a = tr([], [{"a"}])
    b = tr([], [{"b"}])
    both = TraceSet(frozenset({a, b}))
    assert evaluate_hyperltl(both, parse_hyperltl("exists p. G a_p"))
    assert not evaluate_hyperltl(both, parse_hyperltl("forall p. G a_p"))
    assert evaluate_hyperltl(
        both, parse_hyperltl("forall p. (G a_p) | (G b_p)")
    )


def test_hyper_mixed_loop_lengths_align_on_lcm():
    # p holds every 2nd step on one trace, every 3rd on the other; the
    # combined period is 6
    t2 = tr([], [{"p"}, set()])
    t3 = tr([], [{"p"}, set(), set()])
    model = TraceSet(frozenset({t2, t3}))
    phi = parse_hyperltl(
        "exists x. exists y. F (p_x & p_y & X X (!p_x & !p_y))"
    )
    assert evaluate_hyperltl(model, phi)


PREFIXES = [
    shape
    for n in (1, 2, 3)
    for shape in itertools.product((FORALL, EXISTS), repeat=n)
]


@pytest.mark.parametrize(
    "quantifiers", PREFIXES, ids=lambda shape: "".join(q[0] for q in shape)
)
@settings(SEEDED, max_examples=25)
@given(SEEDS)
def test_hyper_evaluator_agrees_with_expanded_semantics(quantifiers, seed):
    # every quantifier order over one to three variables, forall-exists-
    # exists (the correspondence encoding's shape) included; loops of one
    # to three steps make the joint lasso's period an lcm up to 6
    rng = random.Random(seed)
    variables = ("x", "y", "z")[: len(quantifiers)]
    body = random_ltl(rng, PROPS, 3, variables)
    phi = HyperFormula(tuple(zip(quantifiers, variables)), body)
    ts = random_trace_set(rng, PROPS, rng.randint(1, 3), 2, 3)
    assert evaluate_hyperltl(ts, phi) == naive_holds(ts.sorted(), phi)


@pytest.mark.parametrize(
    "lane_bits", [0, 24, 1 << 30], ids=["enumerated", "mixed", "packed"]
)
@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_hyper_evaluator_agrees_across_width_bounds(lane_bits, seed):
    # a width bound of 0 enumerates every variable one trace at a time,
    # 24 bits leave some variables enumerated and some packed, and an
    # unreachable bound packs every assignment into lanes of one pass
    rng = random.Random(seed)
    count = rng.randint(1, 4)
    variables = ("w", "x", "y", "z")[:count]
    quantifiers = tuple(rng.choice((FORALL, EXISTS)) for _ in variables)
    body = random_ltl(rng, PROPS, 3, variables)
    phi = HyperFormula(tuple(zip(quantifiers, variables)), body)
    ts = random_trace_set(rng, PROPS, rng.randint(1, 4), 2, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "LANE_BITS", lane_bits)
        assert evaluate_hyperltl(ts, phi) == naive_holds(ts.sorted(), phi)


def _numbered_traces(count: int, p_on_first: bool) -> TraceSet:
    # trace i loops on the bits of i and p; the trace for 0 sorts first,
    # and holds p only if p_on_first
    traces = set()
    for i in range(count):
        props = {f"b{j}" for j in range(4) if i >> j & 1}
        if i or p_on_first:
            props.add("p")
        traces.add(tr([], [props]))
    return TraceSet(frozenset(traces))


@pytest.mark.parametrize(
    "p_on_first, expected", [(False, False), (True, True)],
    ids=["fails-first", "all-true"],
)
def test_wide_forall_over_twelve_traces(p_on_first, expected):
    # 12**5 assignments overflow the width bound, so the outer variable is
    # enumerated: the failing forall stops at its first trace, the true one
    # folds twelve packed passes
    phi = parse_hyperltl(
        "forall v. forall w. forall x. forall y. forall z. "
        "G F (p_v & p_w & p_x & p_y & p_z)"
    )
    model = _numbered_traces(12, p_on_first)
    start = time.perf_counter()
    assert evaluate_hyperltl(model, phi) is expected
    assert time.perf_counter() - start < 2.0


def test_period_guard_trips():
    primes = (2, 3, 5, 7, 11, 13)
    traces = {
        tr([], [{"p"} if i == 0 else set() for i in range(n)]) for n in primes
    }
    model = TraceSet(frozenset(traces))
    phi = parse_hyperltl("forall x. F p_x")
    with pytest.raises(ResourceLimit) as exc:
        evaluate_hyperltl(model, phi, period_guard=10_000)
    assert exc.value.kind == "period"
    assert evaluate_hyperltl(model, phi, period_guard=100_000)


def test_extract_model_exists_path():
    sub = Substitution(("a", "b"), 2)
    reduction = LtlReduction(Atom("a@1"), sub)
    lasso = tr([], [{"a@1", "b@2"}])
    model = extract_model(lasso, reduction)
    assert model == TraceSet(frozenset({tr([], [{"a"}]), tr([], [{"b"}])}))


def test_extract_model_forall_path():
    reduction = LtlReduction(Atom("b"), None)
    lasso = tr([], [{"b"}])
    assert extract_model(lasso, reduction) == TraceSet(frozenset({lasso}))


def test_extract_model_collapses_identical_witnesses():
    sub = Substitution(("p",), 2)
    reduction = LtlReduction(Atom("p@1"), sub)
    lasso = tr([], [{"p@1", "p@2"}])
    assert extract_model(lasso, reduction) == TraceSet(
        frozenset({tr([], [{"p"}])})
    )


def test_trace_text_format_round_trip():
    t = tr([{"a", "b"}, {"a"}], [{"b"}, set()])
    text = format_trace(t)
    assert text == "{a,b} {a} | {b} {}"
    assert parse_trace(text) == t


def test_trace_text_format_empty_stem():
    t = tr([], [{"a"}])
    assert format_trace(t) == "| {a}"
    assert parse_trace("| {a}") == t
    assert parse_trace("  | {a}") == t


def test_trace_set_text_round_trip():
    ts = TraceSet(frozenset({tr([], [{"a"}]), tr([{"b"}], [set()])}))
    text = "\n".join(format_trace(t) for t in ts)
    assert parse_trace_set(text) == ts


def test_parse_trace_rejects_missing_loop():
    with pytest.raises(ParseError):
        parse_trace("{a} {b}")
    with pytest.raises(ParseError):
        parse_trace("{a} |")


@settings(SEEDED, max_examples=200)
@given(SEEDS)
def test_format_parse_round_trip_random(seed):
    rng = random.Random(seed)
    t = random_trace(rng, ("a", "b", "c"), 4, 4)
    assert parse_trace(format_trace(t)) == t


@settings(SEEDED, max_examples=200)
@given(SEEDS)
def test_canonical_same_valuations_random(seed):
    rng = random.Random(seed)
    t = random_trace(rng, PROPS, 3, 4)
    c = canonical_trace(t)
    horizon = len(t.stem) + 2 * len(t.loop) + len(c.stem) + 2 * len(c.loop)
    for i in range(horizon):
        assert t.valuation_at(i) == c.valuation_at(i)
    assert canonical_trace(c) == c
