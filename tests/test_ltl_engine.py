"""Tableau automaton construction and emptiness checking."""

import random

import pytest
from hypothesis import given, settings

from hypersat.errors import WellFormednessError
from hypersat.ltl_engine import (
    _Tableau,
    _bits,
    _order,
    build_automaton,
    check_emptiness,
    ltl_sat,
)
from hypersat.models import evaluate_ltl
from hypersat.reductions import (
    drop_quantifiers,
    unroll_universals,
    zip_exists,
)
from hypersat.solver import Sat, solve
from hypersat.syntax import (
    TRUE,
    And,
    Atom,
    Const,
    Eventually,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    core_table,
    desugar,
    parse_hyperltl,
    render,
    to_nnf,
)

from generators import SEEDED, SEEDS, random_ltl
from oracles import (
    _next_obligations,
    _saturate,
    bounded_lasso_sat,
    closure,
    closure_keys,
    emerson_lei_nonempty,
    formula_sets,
    make_trace,
    naive_eval,
    reference_automaton,
    reference_desugar,
    reference_lasso,
    reference_nnf,
    sort_key,
)


def nnf(phi):
    return to_nnf(desugar(phi))


def test_contradiction_has_no_initial_state():
    aut = build_automaton(nnf(And(Atom("p"), Not(Atom("p")))))
    assert aut.initial == ()


def test_eventually_acceptance_set():
    phi = nnf(Eventually(Atom("p")))  # true U p
    aut = formula_sets(build_automaton(phi), phi)
    assert len(aut.acceptance) == 1
    expected = frozenset(
        s for s in aut.states if phi not in s or Atom("p") in s
    )
    assert aut.acceptance[0] == expected


def test_globally_pair_language_empty():
    aut = build_automaton(nnf(And(Globally(Atom("b")), Globally(Not(Atom("b"))))))
    assert check_emptiness(aut) is None


def test_globally_forces_loop():
    lasso = check_emptiness(build_automaton(nnf(Globally(Atom("p")))))
    assert lasso == make_trace([], [{"p"}])


def test_zipped_exists_witness_satisfies_formula():
    phi = And(
        And(Atom("a@1"), Globally(Not(Atom("b@1")))),
        Globally(Atom("b@2")),
    )
    lasso = check_emptiness(build_automaton(nnf(phi)))
    assert lasso is not None
    assert evaluate_ltl(lasso, desugar(phi))


def test_ltl_sat_golden_verdicts():
    assert ltl_sat(And(Globally(Atom("b")), Globally(Not(Atom("b"))))) is None
    assert ltl_sat(Until(Atom("p"), Atom("q"))) is not None


def test_ltl_sat_rejects_an_indexed_atom():
    # the well-formedness rule of every entry point, before any tableau
    message = "indexed atom 'b' in an unquantified formula"
    with pytest.raises(WellFormednessError, match=message):
        ltl_sat(Or(Atom("a"), Globally(Atom("b", "x"))))


def test_witnesses_evaluate_true():
    samples = [
        Until(Atom("p"), Atom("q")),
        Eventually(And(Atom("p"), Not(Atom("q")))),
        And(Globally(Eventually(Atom("p"))), Globally(Eventually(Not(Atom("p"))))),
        Or(Globally(Atom("p")), Globally(Atom("q"))),
    ]
    for phi in samples:
        lasso = ltl_sat(phi)
        assert lasso is not None
        assert evaluate_ltl(lasso, desugar(phi))


def test_deterministic_witness():
    phi = And(
        Globally(Eventually(Atom("p"))), Eventually(Globally(Not(Atom("q"))))
    )
    runs = {ltl_sat(phi) for _ in range(5)}
    assert len(runs) == 1


@settings(SEEDED, max_examples=250)
@given(SEEDS)
def test_witness_soundness_random(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, ("p", "q"), 3)
    lasso = ltl_sat(phi)
    if lasso is not None:
        assert evaluate_ltl(lasso, desugar(phi))
        assert naive_eval(lasso, phi)


@settings(SEEDED, max_examples=120)
@given(SEEDS)
def test_oracle_agreement_random(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, ("p", "q"), 3)
    lasso = ltl_sat(phi)
    if lasso is None:
        assert bounded_lasso_sat(phi, ("p", "q"), 3, 3) is None
    else:
        assert evaluate_ltl(lasso, desugar(phi))


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_negation_duality_random(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, ("p", "q"), 3)
    if ltl_sat(phi) is None:
        assert ltl_sat(Not(phi)) is not None


def test_non_nnf_input_rejected():
    with pytest.raises(
        ValueError,
        match=r"^automaton construction needs a desugared NNF formula, "
        r"found Not\(operand=Until\(",
    ):
        build_automaton(Not(Until(Atom("p"), Atom("q"))))
    with pytest.raises(
        ValueError,
        match=r"^automaton construction needs a desugared NNF formula, "
        r"found Eventually\(operand=Atom\(",
    ):
        build_automaton(Eventually(Atom("p")))


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_automaton_equals_reference_tableau_random(seed):
    rng = random.Random(seed)
    phi = nnf(random_ltl(rng, ("p", "q"), 3))
    got = formula_sets(build_automaton(phi), phi)
    want = reference_automaton(phi)
    assert got.states == want.states
    assert got.initial == want.initial
    assert got.transitions == want.transitions
    assert got.acceptance == want.acceptance
    assert got.alphabet == want.alphabet


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_automaton_equals_reference_tableau_three_atoms(seed):
    rng = random.Random(seed)
    phi = nnf(random_ltl(rng, ("p", "q", "r"), 4))
    assert formula_sets(build_automaton(phi), phi) == reference_automaton(phi)


def nested_implications(depth: int) -> str:
    return "G (p -> " * depth + "q" + ")" * depth


# Formulas that reach each path of the closed-alternative saturation: a
# closed seed shared by every obligation mask (the G F conjunction), an
# alternative that clashes with itself, a deterministic Release next to a
# branching Until, saturations with nothing to branch on (the Next chain
# beside a deterministic Release), a start that clashes at once, and the
# unrolled, zipped exists-forall body.  In gf-apart no state meets two
# acceptance sets, so the witness cycle visits them in order.  The search
# decides each branching bit once, users before their operands: the nested
# chain's Ors each bring in the next, a shared Or is brought in by two
# users, and in operand-clash the inner Or enters only through its user's
# choice and then clashes on both sides, so a search that decided operands
# first would keep that choice undecided and consistent.
SATURATION_FIXTURES = {
    "gf-conj-4": " & ".join(f"G F b{i}" for i in range(1, 5)),
    "gf-apart": "G F (p & !q) & G F (q & !p) & G F (!p & !q)",
    "self-clash": "(p & !p) | q",
    "gf-fg": "G F p & F G !p",
    "no-branching": "X X X p & G !p",
    "no-branching-sat": "X X X p & G q",
    "start-clash": "(X q & p) & (G r & !p)",
    "nested-chain-6": nested_implications(6),
    "shared-branching": "G (p | q) & ((p | q) U r)",
    "operand-clash": "!p & !q & ((p | q) | r)",
}
E3A2 = (
    "exists p1. exists p2. exists p3. forall q1. forall q2. "
    "G (a_q1 -> X b_q2)"
)


def unrolled_e3a2_body():
    reduced = zip_exists(unroll_universals(parse_hyperltl(E3A2), 1000))
    return nnf(reduced.formula.body)


@pytest.mark.parametrize("name", sorted(SATURATION_FIXTURES))
def test_automaton_equals_reference_tableau_fixtures(name):
    phi = nnf(parse_hyperltl(SATURATION_FIXTURES[name]).body)
    assert formula_sets(build_automaton(phi), phi) == reference_automaton(phi)


def test_saturations_equal_reference_saturations_nested_chain():
    # every seed the breadth-first build meets, and every closed start
    # that keys the memo, saturates to the reference's sets
    phi = nnf(parse_hyperltl(nested_implications(20)).body)
    tableau = _Tableau(phi)
    nodes = closure(phi)
    bit = {f: 1 << i for i, f in enumerate(nodes)}

    def spelled(mask):
        return frozenset(nodes[i] for i in _bits(mask))

    tableau.saturate(tableau.root)
    for state in tableau.masks:  # grows as states are found
        tableau.saturate(
            sum(bit[f] for f in _next_obligations(spelled(state)))
        )
    assert len(tableau.masks) == 22
    for seed, place in tableau._saturated.items():
        got = {spelled(tableau.masks[n]) for n in tableau.saturations[place]}
        assert got == set(_saturate(spelled(seed)))


def test_automaton_equals_reference_tableau_unrolled_body():
    phi = unrolled_e3a2_body()
    got = build_automaton(phi)
    assert len(got.states) == 135
    assert formula_sets(got, phi) == reference_automaton(phi)


# (states, transitions, acceptance sets): the sizes the benchmark's tracer
# reads from an automaton, pinned so that a change of shape fails here.
@pytest.mark.parametrize(
    "name, shape",
    [("e3a2-unrolled", (135, 2025, 0)), ("gf-conj-4", (32, 512, 4))],
)
def test_automaton_shape_read_by_the_tracer(name, shape):
    if name == "e3a2-unrolled":
        phi = unrolled_e3a2_body()
    else:
        phi = nnf(parse_hyperltl(SATURATION_FIXTURES[name]).body)
    aut = build_automaton(phi)
    assert (
        len(aut.states),
        sum(len(succs) for succs in aut.transitions.values()),
        len(aut.acceptance),
    ) == shape


@settings(SEEDED, max_examples=100)
@given(SEEDS)
def test_closure_keys_are_the_sort_keys_of_the_closure(seed):
    phi = nnf(random_ltl(random.Random(seed), ("p", "q", "r"), 3))
    assert closure_keys(phi) == [sort_key(f) for f in closure(phi)]


@settings(SEEDED, max_examples=40)
@given(SEEDS)
def test_state_order_key_sorts_like_bit_tuples_and_formula_sets(seed):
    rng = random.Random(seed)
    # a random formula, widened past 300 closure bits by a balanced
    # conjunction of fresh literals (shallow, so the nested keys stay cheap)
    parts = [
        rng.choice((lambda a: a, Not, Next))(Atom(f"x{i}"))
        for i in range(rng.randrange(160, 200))
    ]
    while len(parts) > 1:
        parts = [And(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    phi = nnf(And(random_ltl(rng, ("p", "q", "r"), 4), parts[0]))
    # the closure's sort keys, which hash no formula
    keys = closure_keys(phi)
    n = len(keys)
    assert n == len(_Tableau(phi).names)
    assert n >= 300
    full = (1 << n) - 1
    masks = [0, full, full >> 1, full ^ 1]
    for _ in range(12):
        dense = rng.getrandbits(n)
        sparse = 0
        for _ in range(rng.randrange(1, 6)):
            sparse |= 1 << rng.randrange(n)
        # a shared low part ending at different heights
        cut = (1 << rng.randrange(n + 1)) - 1
        masks += [dense, sparse, dense & cut, (dense & cut) | sparse]
    by_key = sorted(masks, key=_order)
    assert by_key == sorted(masks, key=_bits)
    # each mask as its set of closure formulas, keyed as _state_key keys it
    assert by_key == sorted(
        masks, key=lambda m: tuple(sorted(keys[i] for i in _bits(m)))
    )


def assert_emptiness_agrees_with_emerson_lei(phi):
    empty = check_emptiness(build_automaton(phi)) is None
    assert empty != emerson_lei_nonempty(reference_automaton(phi))


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_emptiness_agrees_with_emerson_lei_random(seed):
    rng = random.Random(seed)
    assert_emptiness_agrees_with_emerson_lei(
        nnf(random_ltl(rng, ("p", "q", "r"), 3))
    )


@pytest.mark.parametrize("name", sorted(SATURATION_FIXTURES))
def test_emptiness_agrees_with_emerson_lei_fixtures(name):
    assert_emptiness_agrees_with_emerson_lei(
        nnf(parse_hyperltl(SATURATION_FIXTURES[name]).body)
    )


def test_emptiness_agrees_with_emerson_lei_unrolled_body():
    assert_emptiness_agrees_with_emerson_lei(unrolled_e3a2_body())


def test_long_next_chain_has_linear_automaton():
    result, stats = solve(parse_hyperltl("exists p. " + "X " * 800 + "a_p"))
    assert isinstance(result, Sat)
    assert stats.automaton_states == 802


def assert_lasso_equals_reference(phi):
    want = reference_lasso(reference_automaton(phi))
    assert check_emptiness(build_automaton(phi)) == want


@pytest.mark.parametrize("name", sorted(SATURATION_FIXTURES))
def test_lasso_equals_reference_lasso_fixtures(name):
    assert_lasso_equals_reference(
        nnf(parse_hyperltl(SATURATION_FIXTURES[name]).body)
    )


def test_lasso_equals_reference_lasso_unrolled_body():
    assert_lasso_equals_reference(unrolled_e3a2_body())


@settings(SEEDED, max_examples=100)
@given(SEEDS)
def test_lasso_equals_reference_lasso_random(seed):
    rng = random.Random(seed)
    assert_lasso_equals_reference(nnf(random_ltl(rng, ("p", "q", "r"), 3)))


@settings(SEEDED, max_examples=40)
@given(SEEDS)
def test_automaton_of_the_table_path_equals_reference_random(seed):
    # build_automaton reads the table to_nnf makes from a parsed formula,
    # or walks the tree to_nnf makes from its body: both automata are the
    # reference tableau of the reference NNF
    rng = random.Random(seed)
    parts = [random_ltl(rng, ("p", "q"), 1) for _ in range(3)]
    body = WeakUntil(
        Implies(parts[0], Iff(Atom("p"), Release(Const(False), parts[1]))),
        Not(And(parts[2], Globally(Or(Atom("q"), Next(Eventually(TRUE)))))),
    )
    table_path = to_nnf(desugar(parse_hyperltl(render(body))))
    tree_path = to_nnf(desugar(body))
    reference = reference_automaton(reference_nnf(reference_desugar(body)))
    assert formula_sets(build_automaton(table_path), table_path) == reference
    assert formula_sets(build_automaton(tree_path), tree_path) == reference


@pytest.mark.parametrize(
    "text",
    [
        "forall p. forall q. ((a_p | b_p) U c_p) & ((a_q | b_q) U c_q)"
        " & (true U !a_p)",
        "forall p. forall q. (a_p R (b_p | X a_p)) & (a_q R (b_q | X a_q))",
    ],
)
def test_rows_left_apart_index_as_one(text):
    # dropping the indices leaves equal subformulas in rows of their own,
    # the one row pass that can; the tableau indexes them as one, so the
    # automaton of the table is the automaton of its body's hash-consed
    # table.  The texts are core only, so desugar hands them on as they are
    core = desugar(drop_quantifiers(parse_hyperltl(text)).formula)
    assert len(core._table[0]) > len(core_table(core.body)[0])
    assert build_automaton(core) == build_automaton(core.body)
