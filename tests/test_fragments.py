"""Quantifier-prefix classification."""

import itertools
import random

import pytest
from hypothesis import given, settings

from hypersat.errors import WellFormednessError
from hypersat.fragments import (
    ExistsForall,
    ExistsStar,
    ForallExists,
    ForallStar,
    MultiAlternation,
    classify,
)
from hypersat.syntax import (
    And,
    Atom,
    EXISTS,
    FORALL,
    HyperFormula,
    Or,
    Not,
    parse_hyperltl,
)

from generators import SEEDED, SEEDS


def _with_prefix(prefix):
    """A well-formed formula with the given prefix; body mentions every
    variable."""
    body = None
    for _, v in prefix:
        clause = Or(Atom("a", v), Not(Atom("a", v)))
        body = clause if body is None else And(body, clause)
    return HyperFormula(tuple(prefix), body)


def test_two_universals():
    phi = parse_hyperltl("forall p1. forall p2. (G b_p1) & (G !b_p2)")
    assert classify(phi) == ForallStar(2)


def test_exists_exists_forall():
    phi = parse_hyperltl(
        "exists p0. exists p1. forall p2. (X p_p0) & (G p_p1) & (F p_p2)"
    )
    assert classify(phi) == ExistsForall(2, 1)


def test_pcp_shape_is_forall_exists():
    phi = parse_hyperltl("forall p. exists ps. exists pp. a_p & a_ps & a_pp")
    assert classify(phi) == ForallExists(0)


def test_pure_exists():
    phi = parse_hyperltl("exists p1. exists p2. a_p1 & !a_p2")
    assert classify(phi) == ExistsStar(2)


def test_single_quantifiers():
    assert classify(parse_hyperltl("exists p. a_p")) == ExistsStar(1)
    assert classify(parse_hyperltl("forall p. a_p")) == ForallStar(1)


def test_exists_forall_exists_is_multi_alternation():
    phi = _with_prefix([(EXISTS, "x"), (FORALL, "y"), (EXISTS, "z")])
    assert classify(phi) == MultiAlternation(2)


def test_forall_exists_position_reported():
    phi = _with_prefix([(FORALL, "x"), (FORALL, "y"), (EXISTS, "z")])
    assert classify(phi) == ForallExists(0)
    psi = _with_prefix([(EXISTS, "w"), (FORALL, "x"), (FORALL, "y")])
    assert classify(psi) == ExistsForall(1, 2)


@pytest.mark.parametrize(
    "prefix", [(("some", "x"),), ((EXISTS, "x"), ("some", "w"))]
)
def test_unknown_quantifier_is_refused_not_classified(prefix):
    # without the gate, ("some", "x") alone read as forall-star and after
    # an exists as exists-forall
    body = And(Atom("a", "x"), Atom("a", prefix[-1][1]))
    with pytest.raises(WellFormednessError) as raised:
        classify(HyperFormula(prefix, body))
    assert str(raised.value) == "unknown quantifier 'some'"


def test_every_prefix_up_to_five_gets_exactly_one_class():
    classes = (ExistsStar, ForallStar, ExistsForall, ForallExists,
               MultiAlternation)
    for length in range(1, 6):
        for bits in itertools.product((EXISTS, FORALL), repeat=length):
            prefix = [(q, f"v{i}") for i, q in enumerate(bits)]
            cls = classify(_with_prefix(prefix))
            assert sum(isinstance(cls, c) for c in classes) == 1
            n = sum(q == EXISTS for q in bits)
            m = length - n
            if m == 0:
                assert cls == ExistsStar(n)
            elif n == 0:
                assert cls == ForallStar(m)
            elif bits[0] == FORALL:
                first = next(
                    i
                    for i in range(length)
                    if bits[i] == FORALL and EXISTS in bits[i + 1:]
                )
                assert cls == ForallExists(first)
            elif bits == (EXISTS,) * n + (FORALL,) * m:
                assert cls == ExistsForall(n, m)
            else:
                assert isinstance(cls, MultiAlternation)


@settings(SEEDED, max_examples=200)
@given(SEEDS)
def test_classification_invariant_under_renaming(seed):
    rng = random.Random(seed)
    length = rng.randrange(1, 6)
    bits = [rng.choice((EXISTS, FORALL)) for _ in range(length)]
    phi = _with_prefix([(q, f"v{i}") for i, q in enumerate(bits)])
    psi = _with_prefix([(q, f"w{i + 7}") for i, q in enumerate(bits)])
    assert classify(phi) == classify(psi)
