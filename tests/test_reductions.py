"""Quantifier elimination and trace projection."""

import random

import pytest
from hypothesis import given, settings

from hypersat.errors import AlphabetMismatch, ResourceLimit, WrongFragment
from hypersat.models import TraceSet, UltimatelyPeriodicTrace
from hypersat.reductions import (
    Substitution,
    drop_quantifiers,
    project,
    unroll_universals,
    zip_exists,
)
from hypersat.syntax import (
    And,
    Atom,
    Globally,
    Not,
    Until,
    parse_hyperltl,
    render,
)

from generators import SEEDED, SEEDS, random_quantified, random_trace
from oracles import canonical_trace, make_trace, reference_unroll, zip_traces


def test_substitution_forward_and_inverse():
    # forward is zip_exists' tagging, and inverse reads its tags back
    red = zip_exists(parse_hyperltl("exists p1. exists p2. a_p1 & b_p2"))
    sub = red.substitution
    assert sub == Substitution(("a", "b"), 2)
    assert red.formula.body == And(Atom("a@1"), Atom("b@2"))
    assert sub.inverse("a@1") == ("a", 1)
    assert sub.inverse("b@2") == ("b", 2)


def test_substitution_rejects_out_of_range():
    sub = Substitution(("a",), 1)
    with pytest.raises(AlphabetMismatch):
        sub.inverse("c@1")
    with pytest.raises(AlphabetMismatch):
        sub.inverse("a@2")
    with pytest.raises(AlphabetMismatch):
        sub.inverse("a@9")
    with pytest.raises(AlphabetMismatch):
        sub.inverse("plain")



# Names zip_exists never makes: an index in other Unicode digits, with a
# leading zero, a sign, an underscore or a space, none at all, or a name
# outside the alphabet.  int() would read several of them as 1, and
# raise ValueError on a superscript digit.
NOT_TAGS = ["a@²", "a@01", "a@١", "a@+1", "a@1_0", "a@ 1", "a@", "b@1"]


@pytest.mark.parametrize("fresh", NOT_TAGS)
def test_substitution_inverse_accepts_only_what_forward_makes(fresh):
    sub = Substitution(("a",), 2)
    with pytest.raises(AlphabetMismatch):
        sub.inverse(fresh)


@pytest.mark.parametrize("fresh", NOT_TAGS)
def test_project_rejects_what_forward_never_makes(fresh):
    sub = Substitution(("a",), 2)
    with pytest.raises(AlphabetMismatch):
        project(make_trace([{"a@1"}], [{"a@2", fresh}]), sub)

def test_drop_quantifiers_golden_pair():
    phi = parse_hyperltl("forall p1. forall p2. (G b_p1) & (G !b_p2)")
    red = drop_quantifiers(phi)
    assert red.formula.body == And(
        Globally(Atom("b")), Globally(Not(Atom("b")))
    )
    assert red.substitution is None


def test_drop_quantifiers_until():
    phi = parse_hyperltl("forall p. a_p U b_p")
    assert drop_quantifiers(phi).formula.body == Until(Atom("a"), Atom("b"))


def test_drop_quantifiers_wrong_fragment():
    with pytest.raises(WrongFragment):
        drop_quantifiers(parse_hyperltl("exists p. a_p"))


def test_zip_exists_golden_example():
    phi = parse_hyperltl("exists p1. exists p2. a_p1 & (G !b_p1) & (G b_p2)")
    red = zip_exists(phi)
    assert red.formula.body == And(
        And(Atom("a@1"), Globally(Not(Atom("b@1")))),
        Globally(Atom("b@2")),
    )
    assert red.substitution == Substitution(("a", "b"), 2)


def test_zip_exists_single_variable():
    red = zip_exists(parse_hyperltl("exists p. a_p"))
    assert red.formula.body == Atom("a@1")


def test_zip_exists_two_traces_needed():
    phi = parse_hyperltl("exists p1. exists p2. a_p1 & !a_p2")
    assert zip_exists(phi).formula.body == And(Atom("a@1"), Not(Atom("a@2")))


def test_zip_exists_wrong_fragment():
    with pytest.raises(WrongFragment):
        zip_exists(parse_hyperltl("forall p. a_p"))


FOUR_BLOCK = (
    "exists p1. exists p2. forall q1. forall q2. "
    "((G a_q1) & (G b_q2)) & ((G c_p1) & (G d_p2))"
)


def _conjuncts(body) -> list:
    """The top-level conjuncts of a body, left to right."""
    parts = []
    stack = [body]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        else:
            parts.append(f)
    return parts


def test_unroll_conjunct_count_is_n_to_the_m():
    # each copy substitutes every universal atom, so no two are equal
    phi = parse_hyperltl(
        "exists p1. exists p2. forall q1. forall q2. forall q3. "
        "G (a_q1 & b_q2 & c_q3)"
    )
    assert len(_conjuncts(unroll_universals(phi).body)) == 2**3


def test_unroll_conjunct_order_first_universal_fastest():
    phi = parse_hyperltl(
        "exists p1. exists p2. forall q1. forall q2. G (a_q1 & b_q2)"
    )
    expected = " & ".join(
        f"(G (a_{u} & b_{v}))"
        for u, v in (("p1", "p1"), ("p2", "p1"), ("p1", "p2"), ("p2", "p2"))
    )
    assert unroll_universals(phi) == parse_hyperltl(
        "exists p1. exists p2. " + expected
    )


def test_unroll_four_block_keeps_all_distinct_conjuncts():
    phi = parse_hyperltl(FOUR_BLOCK)
    unrolled = unroll_universals(phi)
    assert unrolled.prefix == (("exists", "p1"), ("exists", "p2"))
    text = (
        "exists p1. exists p2. "
        "(G a_p1) & (G b_p1) & (G c_p1) & (G d_p2) & "
        "(G a_p2) & (G b_p2)"
    )
    assert unrolled == parse_hyperltl(text)


def test_unroll_dedup_matches_simplified_form():
    phi = parse_hyperltl(
        "exists p0. exists p1. forall p2. (X p_p0) & (G p_p1) & (F p_p2)"
    )
    unrolled = unroll_universals(phi)
    target = parse_hyperltl(
        "exists p0. exists p1. (X p_p0) & (G p_p1) & (F p_p0) & (F p_p1)"
    )
    assert unrolled == target


def test_unroll_keeps_universal_free_conjuncts_as_they_are():
    # only atoms of universal variables are substituted, so a conjunct
    # that has none is the input's own subformula, in every copy
    phi = parse_hyperltl(FOUR_BLOCK)
    kept = phi.body.right  # (G c_p1) & (G d_p2)
    parts = _conjuncts(unroll_universals(phi).body)
    assert len(parts) == 6  # the four copies share the two kept once
    assert parts[2] == kept.left and parts[3] == kept.right


def test_unroll_wrong_fragment():
    with pytest.raises(WrongFragment):
        unroll_universals(parse_hyperltl("exists p1. exists p2. a_p1 & a_p2"))
    with pytest.raises(WrongFragment):
        unroll_universals(parse_hyperltl("forall p. exists q. a_p & a_q"))


def test_unroll_blowup_guard():
    phi = parse_hyperltl(
        "exists e1. exists e2. exists e3. forall u1. forall u2. forall u3. "
        "a_e1 & a_e2 & a_e3 & (a_u1 | a_u2 | a_u3)"
    )
    with pytest.raises(ResourceLimit) as exc:
        unroll_universals(phi, limit=26)
    assert exc.value.kind == "unroll"
    assert exc.value.required == 27
    assert exc.value.limit == 26
    assert unroll_universals(phi, limit=27).prefix == (
        ("exists", "e1"), ("exists", "e2"), ("exists", "e3")
    )


def test_project_golden_example():
    sub = Substitution(("a", "b"), 2)
    zipped = make_trace([], [{"a@1", "b@2"}])
    assert project(zipped, sub) == TraceSet(
        frozenset({make_trace([], [{"a"}]), make_trace([], [{"b"}])})
    )


def test_project_collapses_empty_witnesses():
    sub = Substitution(("a",), 3)
    assert project(make_trace([], [set()]), sub) == TraceSet(
        frozenset({make_trace([], [set()])})
    )


def test_project_rejects_foreign_proposition():
    sub = Substitution(("a",), 1)
    with pytest.raises(AlphabetMismatch):
        project(make_trace([], [{"b@1"}]), sub)
    with pytest.raises(AlphabetMismatch):
        project(make_trace([], [{"a"}]), sub)


def test_project_zip_round_trip_simple():
    sub = Substitution(("a", "b"), 2)
    t1 = make_trace([{"a"}], [{"b"}])
    t2 = make_trace([], [{"a", "b"}, set()])
    zipped = zip_traces([t1, t2])
    split = project(zipped, sub)
    # zipping aligns both traces on a common shape, so compare as streams
    assert len(split.traces) == 2
    for original in (t1, t2):
        assert any(
            all(
                got.valuation_at(i) == original.valuation_at(i)
                for i in range(12)
            )
            for got in split.traces
        )


@settings(SEEDED, max_examples=250)
@given(SEEDS)
def test_project_zip_identity_random(seed):
    rng = random.Random(seed)
    arity = rng.randrange(1, 4)
    props = ("a", "b", "c")[: rng.randrange(1, 4)]
    sub = Substitution(props, arity)
    shape_stem = rng.randrange(5)
    shape_loop = rng.randrange(1, 5)
    originals = [
        random_trace(rng, props, 0, 0, stem_len=shape_stem, loop_len=shape_loop)
        for _ in range(arity)
    ]
    zipped = zip_traces(originals)
    assert project(zipped, sub) == TraceSet(frozenset(originals))


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_project_zip_identity_mixed_shapes_random(seed):
    rng = random.Random(seed)
    arity = rng.randrange(1, 4)
    props = ("a", "b")
    sub = Substitution(props, arity)
    originals = [random_trace(rng, props, 3, 3) for _ in range(arity)]
    zipped = zip_traces(originals)
    got = project(zipped, sub)
    # mixed shapes realign on zip, so compare canonical representatives
    assert set(map(canonical_trace, got)) == set(
        map(canonical_trace, originals)
    )

@settings(SEEDED, max_examples=200)
@given(SEEDS)
def test_unroll_on_rows_equals_the_tree_definition_random(seed):
    # the rows that mention no universal variable are shared by every
    # copy and the conjuncts deduplicated by row, which must give the
    # conjunction of the deduplicated conjuncts of the copies on trees
    rng = random.Random(seed)
    n, m = rng.randrange(1, 4), rng.randrange(1, 4)
    made = random_quantified(rng, ("a", "b"), rng.randrange(4), n, m)
    phi = parse_hyperltl(render(made))
    want = reference_unroll(phi)
    for formula in (phi, made):
        unrolled = unroll_universals(formula)
        assert unrolled.prefix == phi.prefix[:n]
        assert unrolled.body == want
