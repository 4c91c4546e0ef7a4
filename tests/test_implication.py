"""Implication and equivalence checking between alternation-free formulas."""

import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from hypersat import errors, implication
from hypersat.implication import (
    Fails,
    Holds,
    Unsupported,
    check_equivalence,
    check_implication,
)
from hypersat.models import TraceSet, evaluate_hyperltl
from hypersat.solver import Sat, SolverOptions, hyper_sat
from hypersat.syntax import (
    Atom,
    HyperFormula,
    parse_hyperltl,
)

from generators import SEEDED, SEEDS, random_quantified
from oracles import enumerate_lassos, make_trace, map_atoms


def rename_formula(phi: HyperFormula, mapping: dict) -> HyperFormula:
    """Rename prefix variables and their atom indices in one pass."""
    body = map_atoms(
        phi.body,
        lambda a: Atom(a.name, mapping.get(a.trace, a.trace)),
    )
    prefix = tuple((q, mapping.get(v, v)) for q, v in phi.prefix)
    return HyperFormula(prefix, body)


WEAK_OD = "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))"
BOX_OD = "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"


def test_weak_od_implies_box_od():
    verdict = check_implication(parse_hyperltl(WEAK_OD), parse_hyperltl(BOX_OD))
    assert verdict == Holds()


def test_box_od_does_not_imply_weak_od():
    verdict = check_implication(parse_hyperltl(BOX_OD), parse_hyperltl(WEAK_OD))
    assert isinstance(verdict, Fails)
    assert evaluate_hyperltl(verdict.countermodel, parse_hyperltl(BOX_OD))
    assert not evaluate_hyperltl(verdict.countermodel, parse_hyperltl(WEAK_OD))


def test_known_two_trace_countermodel():
    # outputs differ at step 0 before any input difference, but inputs
    # differ at step 1, so the boxed version holds vacuously
    t1 = make_trace([set(), {"i"}], [set()])
    t2 = make_trace([{"o"}, set()], [set()])
    counter = TraceSet(frozenset({t1, t2}))
    assert evaluate_hyperltl(counter, parse_hyperltl(BOX_OD))
    assert not evaluate_hyperltl(counter, parse_hyperltl(WEAK_OD))


@pytest.mark.parametrize("lines", [
    # satisfies both sides: refutes nothing
    [([], [set()])],
    # inputs agree, outputs differ: falsifies the antecedent
    [([], [set()]), ([], [{"o"}])],
])
def test_bogus_countermodel_is_an_internal_error(monkeypatch, lines):
    model = TraceSet(frozenset(make_trace(s, l) for s, l in lines))
    monkeypatch.setattr(
        implication, "hyper_sat", lambda formula, options: Sat(model, True)
    )
    box, weak = parse_hyperltl(BOX_OD), parse_hyperltl(WEAK_OD)
    with pytest.raises(errors.InternalError):
        check_implication(box, weak)
    unchecked = SolverOptions(verify_models=False)
    assert check_implication(box, weak, unchecked) == Fails(model)


def test_reflexivity():
    for text in (WEAK_OD, BOX_OD, "exists p. a_p U b_p"):
        phi = parse_hyperltl(text)
        assert check_implication(phi, phi) == Holds()


def test_box_distributes_over_and():
    lhs = parse_hyperltl("forall p. (G a_p) & (G b_p)")
    rhs = parse_hyperltl("forall p. G (a_p & b_p)")
    assert check_equivalence(lhs, rhs) == (Holds(), Holds())


def test_independent_exists_fail_both_ways():
    lhs = parse_hyperltl("exists p. a_p")
    rhs = parse_hyperltl("exists p. b_p")
    forward, backward = check_equivalence(lhs, rhs)
    assert isinstance(forward, Fails)
    assert isinstance(backward, Fails)


def test_forall_implies_exists_same_body():
    # a forall antecedent guarantees the property on every trace, and
    # trace sets are non-empty, so the exists consequent follows
    lhs = parse_hyperltl("forall p. G a_p")
    rhs = parse_hyperltl("exists p. G a_p")
    assert check_implication(lhs, rhs) == Holds()


def test_exists_does_not_imply_forall():
    lhs = parse_hyperltl("exists p. G a_p")
    rhs = parse_hyperltl("forall p. G a_p")
    verdict = check_implication(lhs, rhs)
    assert isinstance(verdict, Fails)
    assert evaluate_hyperltl(verdict.countermodel, lhs)
    assert not evaluate_hyperltl(verdict.countermodel, rhs)


def test_exists_implies_exists_weakening():
    lhs = parse_hyperltl("exists p. (G a_p) & (F b_p)")
    rhs = parse_hyperltl("exists p. F b_p")
    assert check_implication(lhs, rhs) == Holds()


def test_forall_implies_forall_weakening():
    lhs = parse_hyperltl("forall p. (G a_p) & (F b_p)")
    rhs = parse_hyperltl("forall p. F b_p")
    assert check_implication(lhs, rhs) == Holds()


def test_shared_variable_names_renamed_apart():
    lhs = parse_hyperltl("forall p. G a_p")
    rhs = parse_hyperltl("exists p. F a_p")
    assert check_implication(lhs, rhs) == Holds()


def test_exists_forall_input_unsupported():
    mixed = parse_hyperltl("exists p. forall q. a_p & a_q")
    plain = parse_hyperltl("exists p. a_p")
    assert isinstance(check_implication(mixed, plain), Unsupported)
    assert isinstance(check_implication(plain, mixed), Unsupported)


def test_verdict_invariant_under_renaming():
    lhs = parse_hyperltl(WEAK_OD)
    rhs = parse_hyperltl(BOX_OD)
    renamed = rename_formula(lhs, {"p": "x", "q": "y"})
    assert check_implication(renamed, rhs) == check_implication(lhs, rhs)
    got = check_implication(rhs, renamed)
    assert isinstance(got, Fails)


@settings(SEEDED, max_examples=60)
@given(SEEDS)
def test_fails_countermodels_are_sound_random(seed):
    rng = random.Random(seed)
    lhs_exists = rng.random() < 0.5
    rhs_exists = rng.random() < 0.5
    n_lhs = rng.randrange(1, 3)
    n_rhs = rng.randrange(1, 3)
    lhs = random_quantified(
        rng, ("p",), 2,
        n_lhs if lhs_exists else 0, 0 if lhs_exists else n_lhs,
    )
    rhs_raw = random_quantified(
        rng, ("p",), 2,
        n_rhs if rhs_exists else 0, 0 if rhs_exists else n_rhs,
    )
    rhs = rename_formula(
        rhs_raw, {v: "z" + v for _, v in rhs_raw.prefix}
    )
    verdict = check_implication(lhs, rhs)
    if isinstance(verdict, Fails):
        assert evaluate_hyperltl(verdict.countermodel, lhs)
        assert not evaluate_hyperltl(verdict.countermodel, rhs)


@settings(SEEDED, max_examples=20)
@given(SEEDS)
def test_holds_never_contradicted_by_search_random(seed):
    rng = random.Random(seed)
    exists_side = rng.random() < 0.5
    lhs = random_quantified(rng, ("p",), 2, 2 if exists_side else 0,
                            0 if exists_side else 2)
    rhs_raw = random_quantified(rng, ("p",), 2, 1 if exists_side else 0,
                                0 if exists_side else 1)
    rhs = rename_formula(
        rhs_raw, {v: "z" + v for _, v in rhs_raw.prefix}
    )
    if check_implication(lhs, rhs) != Holds():
        return
    lassos = list(enumerate_lassos(("p",), 1, 2))
    for count in (1, 2):
        for combo in itertools.combinations(lassos, count):
            ts = TraceSet(frozenset(combo))
            assert not (
                evaluate_hyperltl(ts, lhs) and not evaluate_hyperltl(ts, rhs)
            )


# Relations between verdicts, on formulas of the golden implies corpus:
# exists-only and forall-only, of one to three variables, countermodels
# checked by the evaluator.  Only those of at most two variables are
# drawn, so that no check unrolls more than 2**2 conjuncts.


@functools.cache
def _corpus():
    """The corpus's pairs of at most two variables a side, with their
    recorded verdicts, and its distinct formulas of at most two variables,
    in text order."""
    lines = (Path(__file__).parent / "golden" / "implies.jsonl").read_text(
        encoding="utf-8"
    )
    pairs = []
    formulas = {}
    for line in lines.splitlines():
        recorded = json.loads(line)
        sides = [parse_hyperltl(text) for text in recorded["text"]]
        small = [len(f.prefix) <= 2 for f in sides]
        for text, f, fits in zip(recorded["text"], sides, small):
            if fits:
                formulas[text] = f
        if all(small):
            pairs.append((*sides, recorded["verdict"]))
    return pairs, [formulas[text] for text in sorted(formulas)]


def test_holds_is_transitive():
    # a => b and b => c give a => c, with a => b a recorded HOLDS pair
    # and c drawn from the corpus on either side of it
    pairs, formulas = _corpus()
    rng = random.Random(18)
    chains = 0
    for a, b, verdict in pairs:
        if verdict != "HOLDS":
            continue
        assert check_implication(a, b) == Holds()
        for c in rng.sample(formulas, 12):
            if check_implication(b, c) == Holds():
                chains += 1
                assert check_implication(a, c) == Holds()
            if check_implication(c, a) == Holds():
                chains += 1
                assert check_implication(c, b) == Holds()
    assert chains >= 20


def test_equivalence_is_symmetric():
    pairs, _ = _corpus()
    for a, b, _ in pairs:
        forward = check_equivalence(a, b)
        assert check_equivalence(b, a) == forward[::-1]


def test_unsat_antecedent_implies_anything():
    _, formulas = _corpus()
    unsat = [f for f in formulas if not isinstance(hyper_sat(f), Sat)]
    assert len(unsat) >= 10
    rng = random.Random(18)
    for a in unsat:
        for c in rng.sample(formulas, 12):
            assert check_implication(a, c) == Holds()
