"""Parser, printer, desugaring, and negation normal form."""

import copy
import dataclasses
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hypersat.errors import ParseError, WellFormednessError
from hypersat.fragments import ExistsForall, ExistsStar, ForallStar, classify
from hypersat.pcp import encode_pcp
from hypersat.reductions import drop_quantifiers, unroll_universals, zip_exists
from hypersat.syntax import (
    And,
    Atom,
    Const,
    EXISTS,
    Eventually,
    FALSE,
    FORALL,
    Formula,
    Globally,
    HyperFormula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    Until,
    WeakUntil,
    _nodes,
    atom_names,
    check_well_formed,
    compile_formula,
    core_table,
    desugar,
    free_trace_variables,
    node_count,
    parse_hyperltl,
    render,
    to_nnf,
)

from generators import SEEDED, SEEDS, SIX_STONES, random_ltl, random_quantified
from make_golden import GOLDEN
from oracles import (
    PLAIN_NODES,
    enumerate_lassos,
    map_atoms,
    naive_eval,
    plain_copy,
    reference_desugar,
    reference_listing,
    reference_nnf,
    reference_parse,
    reference_render,
)


def test_parse_two_universals_globally_pair():
    phi = parse_hyperltl("forall p1. forall p2. (G b_p1) & (G !b_p2)")
    assert phi.prefix == ((FORALL, "p1"), (FORALL, "p2"))
    assert phi.body == And(
        Globally(Atom("b", "p1")), Globally(Not(Atom("b", "p2")))
    )


def test_parse_smallest_closed_formula():
    phi = parse_hyperltl("exists p. a_p")
    assert phi.prefix == ((EXISTS, "p"),)
    assert phi.body == Atom("a", "p")


def test_unindexed_atom_under_quantifier_rejected():
    with pytest.raises(WellFormednessError):
        parse_hyperltl("forall p. a")


def test_free_trace_variable_rejected():
    # the tokenizer never invents indexed atoms for unbound names, but a
    # programmatically built formula can leak one
    from hypersat.syntax import check_well_formed

    with pytest.raises(WellFormednessError):
        check_well_formed(HyperFormula((), Atom("a", "p")))
    with pytest.raises(WellFormednessError):
        check_well_formed(
            HyperFormula(((FORALL, "p"),), And(Atom("a", "p"), Atom("a", "q")))
        )


def test_duplicate_binder_rejected():
    with pytest.raises(WellFormednessError):
        parse_hyperltl("forall p. forall p. a_p")


def test_non_prenex_quantifier_rejected():
    with pytest.raises(WellFormednessError):
        parse_hyperltl("forall p. (exists q. a_q) & a_p")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_hyperltl("a & ")
    assert exc.value.position == 4


def test_parse_error_on_garbage_character():
    with pytest.raises(ParseError):
        parse_hyperltl("a $ b")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_hyperltl("a b")


def test_precedence_unary_binds_tightest():
    assert parse_hyperltl("!a U b").body == Until(Not(Atom("a")), Atom("b"))
    assert parse_hyperltl("X a & b").body == And(Next(Atom("a")), Atom("b"))
    assert parse_hyperltl("F a | G b").body == Or(
        Eventually(Atom("a")), Globally(Atom("b"))
    )


def test_precedence_until_right_associative():
    assert parse_hyperltl("a U b U c").body == Until(
        Atom("a"), Until(Atom("b"), Atom("c"))
    )
    assert parse_hyperltl("a U b R c").body == Until(
        Atom("a"), Release(Atom("b"), Atom("c"))
    )


def test_precedence_and_over_or():
    assert parse_hyperltl("a & b | c").body == Or(
        And(Atom("a"), Atom("b")), Atom("c")
    )
    assert parse_hyperltl("a | b & c").body == Or(
        Atom("a"), And(Atom("b"), Atom("c"))
    )


def test_precedence_implies_right_associative_and_weakest_but_iff():
    assert parse_hyperltl("a -> b -> c").body == Implies(
        Atom("a"), Implies(Atom("b"), Atom("c"))
    )
    assert parse_hyperltl("a | b -> c").body == Implies(
        Or(Atom("a"), Atom("b")), Atom("c")
    )
    assert parse_hyperltl("a -> b <-> c").body == Iff(
        Implies(Atom("a"), Atom("b")), Atom("c")
    )


def test_double_negation_parses():
    assert parse_hyperltl("!!a").body == Not(Not(Atom("a")))


def test_constants_parse():
    assert parse_hyperltl("true").body == TRUE
    assert parse_hyperltl("false U a").body == Until(FALSE, Atom("a"))


def test_underscore_name_without_binding_is_plain_proposition():
    # x_y only splits into an indexed atom when y is a bound variable
    phi = parse_hyperltl("G foo_bar")
    assert phi.body == Globally(Atom("foo_bar"))
    psi = parse_hyperltl("forall bar. G foo_bar")
    assert psi.body == Globally(Atom("foo", "bar"))


def test_rightmost_underscore_split():
    phi = parse_hyperltl("forall p. G a_b_p")
    assert phi.body == Globally(Atom("a_b", "p"))


def test_render_true():
    assert render(TRUE) == "true"


def test_render_round_trip_golden_example():
    text = "forall p1. forall p2. (G b_p1) & (G !b_p2)"
    phi = parse_hyperltl(text)
    assert parse_hyperltl(render(phi)) == phi


def test_render_smallest_formula_reparses():
    phi = parse_hyperltl("exists p. a_p")
    assert parse_hyperltl(render(phi)) == phi


def test_desugar_eventually():
    assert desugar(Eventually(Atom("p"))) == Until(TRUE, Atom("p"))


def test_desugar_globally_through_release():
    assert desugar(Globally(Atom("p"))) == Release(FALSE, Atom("p"))


def test_desugar_weak_until():
    assert desugar(WeakUntil(Atom("p"), Atom("q"))) == Or(
        Until(Atom("p"), Atom("q")), Release(FALSE, Atom("p"))
    )


def test_desugar_fixed_point_on_core():
    core = And(Atom("p"), Atom("q"))
    assert desugar(core) == core


def test_desugar_keeps_core_nodes():
    core = And(Until(Atom("p"), Not(Atom("q"))), Next(Release(FALSE, Atom("q"))))
    assert desugar(core) is core
    # only the sugar node and its ancestors change
    plain = Or(Atom("p"), Next(Atom("q")))
    phi = And(plain, Eventually(Atom("q")))
    cored = desugar(phi)
    assert cored == And(plain, Until(TRUE, Atom("q")))
    assert cored.left == plain
    assert cored.right.right == phi.right.operand


BINARY_CORE = (And, Or, Until, Release)


def _has_sugar(formula) -> bool:
    sugar = (Implies, Iff, WeakUntil, Eventually, Globally)
    return any(t in sugar for t in reference_listing(formula)[0])


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_desugar_matches_the_reference_fold_random(seed):
    rng = random.Random(seed)
    variables = ("x", "y") if rng.random() < 0.5 else ()
    phi = random_ltl(rng, PROPS, rng.randrange(6), variables)
    cored = desugar(phi)
    assert cored == reference_desugar(phi)
    # a subformula with no sugar below it comes back unchanged
    stack = [(phi, cored)]
    while stack:
        before, after = stack.pop()
        if not _has_sugar(before):
            assert after == before
        elif type(before) is type(after) and type(before) in BINARY_CORE:
            stack += ((before.left, after.left), (before.right, after.right))
        elif type(before) is type(after) and type(before) in (Not, Next):
            stack.append((before.operand, after.operand))


def test_desugar_implies_and_iff():
    assert desugar(Implies(Atom("a"), Atom("b"))) == Or(
        Not(Atom("a")), Atom("b")
    )
    assert desugar(Iff(Atom("a"), Atom("b"))) == And(
        Or(Not(Atom("a")), Atom("b")), Or(Not(Atom("b")), Atom("a"))
    )


def test_nnf_until_duality():
    phi = desugar(Not(Until(Atom("a"), Atom("b"))))
    assert to_nnf(phi) == Release(Not(Atom("a")), Not(Atom("b")))


def test_nnf_release_duality():
    phi = Not(Release(Atom("a"), Atom("b")))
    assert to_nnf(phi) == Until(Not(Atom("a")), Not(Atom("b")))


def test_nnf_next_self_dual():
    assert to_nnf(Not(Next(Atom("a")))) == Next(Not(Atom("a")))


def test_nnf_double_negation():
    assert to_nnf(Not(Not(Atom("a")))) == Atom("a")


def test_nnf_de_morgan():
    assert to_nnf(Not(And(Atom("a"), Atom("b")))) == Or(
        Not(Atom("a")), Not(Atom("b"))
    )
    assert to_nnf(Not(Or(Atom("a"), Atom("b")))) == And(
        Not(Atom("a")), Not(Atom("b"))
    )


def test_nnf_constants_flip():
    assert to_nnf(Not(TRUE)) == FALSE
    assert to_nnf(Not(FALSE)) == TRUE


def test_free_trace_variables_mixed():
    body = And(Atom("a", "p1"), Atom("b", "p2"))
    assert free_trace_variables(body) == {"p1", "p2"}


def test_free_trace_variables_plain():
    assert free_trace_variables(And(Atom("a"), Atom("b"))) == set()


def test_free_trace_variables_golden_body():
    phi = parse_hyperltl("forall p1. forall p2. (G b_p1) & (G !b_p2)")
    assert free_trace_variables(phi.body) == {"p1", "p2"}


def test_well_formedness_errors_keep_their_order():
    # an unbound variable is reported before an unindexed atom, and the
    # first offending atom from the left is the one named
    body = And(Atom("a"), And(Atom("b", "r"), Atom("c", "q")))
    with pytest.raises(WellFormednessError, match="unbound trace variable 'q'"):
        check_well_formed(HyperFormula(((FORALL, "p"),), body))
    body = And(Atom("a", "p"), And(Atom("b"), Atom("c")))
    with pytest.raises(WellFormednessError, match="atom 'b' lacks"):
        check_well_formed(HyperFormula(((FORALL, "p"),), body))
    body = And(Atom("a"), And(Atom("b", "p"), Atom("c", "q")))
    with pytest.raises(WellFormednessError, match="indexed atom 'b'"):
        check_well_formed(HyperFormula((), body))


def test_deep_conjunction_chain_parses():
    # 25,000 conjuncts nest deeper than the recursion limit; the atom walk
    # of the well-formedness check must not recurse
    text = "exists p. " + " & ".join(["a_p"] * 25_000)
    body = parse_hyperltl(text).body
    assert free_trace_variables(body) == {"p"}


def _large_text_cases() -> dict:
    text = render(encode_pcp(SIX_STONES))
    middle = text.index(" ", len(text) // 2)
    stray = text[:middle] + " )" + text[middle:]
    atom = re.compile(r"p_\w+").search(text, middle)
    quantified = text[: atom.start()] + "forall" + text[atom.end() :]
    return {
        # the stray ')' closes a group early, so the text's last ')' is
        # the one left unmatched
        "stray-paren": stray,
        "stray-paren-bad-char": stray + "$",
        "dangling-and": text[:middle] + " & )" + text[middle:],
        "quantifier-in-body": quantified,
        "quantifier-in-body-bad-char": quantified + "$",
    }


# The (type, message, position) that each case raises.
PINNED_ERRORS = {
    "stray-paren": (
        ParseError,
        "parse error at position 64893: unexpected trailing input ')'",
        64893,
    ),
    "stray-paren-bad-char": (
        ParseError,
        "parse error at position 64894: unexpected character '$'",
        64894,
    ),
    "dangling-and": (
        ParseError,
        "parse error at position 32455: expected a formula, found ')'",
        32455,
    ),
    "quantifier-in-body": (
        WellFormednessError,
        "quantifiers must form a prefix; found one inside the body",
        None,
    ),
    "quantifier-in-body-bad-char": (
        ParseError,
        "parse error at position 64886: unexpected character '$'",
        64886,
    ),
}


@pytest.mark.parametrize("case", PINNED_ERRORS)
def test_errors_on_a_workload_size_text_pinned(case):
    # the positions come from the tokenizer only once parsing fails, and a
    # bad character anywhere still wins over a parse error before it
    text = _large_text_cases()[case]
    assert _outcome(parse_hyperltl, text) == PINNED_ERRORS[case]


def test_atom_names():
    phi = parse_hyperltl("exists p. a_p U (b_p & a_p)")
    assert atom_names(phi.body) == {"a", "b"}


PROPS = ("p", "q")


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_parse_render_round_trip_random(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        phi = HyperFormula((), random_ltl(rng, PROPS, rng.randrange(5)))
    else:
        phi = random_quantified(
            rng, PROPS, rng.randrange(4), rng.randrange(3), rng.randrange(3)
        )
        if not phi.prefix:
            phi = HyperFormula((), random_ltl(rng, PROPS, 3))
    assert parse_hyperltl(render(phi)) == phi


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_render_matches_the_reference_fold_random(seed):
    rng = random.Random(seed)
    phi = random_quantified(
        rng, PROPS, rng.randrange(6), rng.randrange(3), rng.randrange(1, 3)
    )
    assert render(phi) == reference_render(phi)
    assert render(phi.body) == reference_render(phi.body)


@settings(SEEDED, max_examples=120)
@given(SEEDS)
def test_nnf_preserves_semantics_random(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, ("p", "q"), 3)
    normal = to_nnf(desugar(phi))
    for trace in enumerate_lassos(("p", "q"), 2, 2):
        assert naive_eval(trace, phi) == naive_eval(trace, normal)


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_desugar_and_nnf_idempotent(seed):
    rng = random.Random(seed)
    phi = random_ltl(rng, PROPS, 4)
    cored = desugar(phi)
    assert desugar(cored) == cored
    normal = to_nnf(cored)
    assert to_nnf(normal) == normal


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_nnf_node_count_bound(seed):
    rng = random.Random(seed)
    phi = desugar(random_ltl(rng, PROPS, 4))
    assert node_count(to_nnf(phi)) <= 2 * node_count(phi) + 1


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_nnf_negations_only_on_atoms(seed):
    rng = random.Random(seed)
    normal = to_nnf(desugar(random_ltl(rng, PROPS, 4)))
    stack = [normal]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            assert isinstance(node.operand, Atom)
        for field in getattr(node, "__dataclass_fields__", ()):
            child = getattr(node, field)
            if hasattr(child, "__dataclass_fields__"):
                stack.append(child)


def _first_post_order(formula) -> list:
    """The distinct subformulas, each at its first post-order visit."""
    out = []

    def visit(f):
        for field in f.__dataclass_fields__:
            child = getattr(f, field)
            if hasattr(child, "__dataclass_fields__"):
                visit(child)
        if f not in out:
            out.append(f)

    visit(formula)
    return out


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_core_table_rows_random(seed):
    rng = random.Random(seed)
    variables = ("x", "y") if rng.random() < 0.5 else ()
    phi = desugar(random_ltl(rng, PROPS, rng.randrange(6), variables))
    table = core_table(phi)
    ops, lhs, rhs, root = table
    nodes = _nodes(table)
    # one row per structurally distinct subformula, in first-encounter
    # post-order, and the root's row is the formula itself
    assert nodes == _first_post_order(phi)
    assert nodes[root] == phi
    kinds = (Atom, Const, Not, Next, And, Or, Until, Release)
    for i, f in enumerate(nodes):
        assert kinds[ops[i]] is type(f)
        if isinstance(f, Atom):
            assert (lhs[i], rhs[i]) == (f.name, f.trace)
        elif isinstance(f, Const):
            assert (lhs[i], rhs[i]) == (f.value, None)
        elif isinstance(f, (Not, Next)):
            # operands before parents
            assert lhs[i] < i and rhs[i] is None
            assert nodes[lhs[i]] == f.operand
        else:
            assert lhs[i] < i and rhs[i] < i
            assert (nodes[lhs[i]], nodes[rhs[i]]) == (f.left, f.right)
    # an equal subtree built as separate objects shares the rows
    twin = map_atoms(phi, lambda a: Atom(a.name, a.trace))
    pair = core_table(And(phi, twin))
    _, pair_lhs, pair_rhs, pair_root = pair
    assert _nodes(pair) == nodes + [And(phi, phi)]
    assert pair_lhs[pair_root] == pair_rhs[pair_root] == root


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_nnf_matches_the_reference_listing_random(seed):
    rng = random.Random(seed)
    variables = ("x", "y") if rng.random() < 0.5 else ()
    phi = desugar(random_ltl(rng, PROPS, rng.randrange(6), variables))
    assert to_nnf(phi) == reference_nnf(phi)


def test_nnf_shares_equal_subformulas():
    # desugaring copies each <->'s right operand, so as a tree the NNF of
    # a d-deep chain grows like 2^d; the table builds each of its O(d)
    # distinct subformulas once per polarity
    depth = 16
    text = " <-> ".join(f"a{i}" for i in range(depth))
    normal = to_nnf(desugar(parse_hyperltl(text).body))
    seen = set()
    stack = [normal]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for field in node.__dataclass_fields__:
            child = getattr(node, field)
            if isinstance(child, Formula):
                stack.append(child)
    assert len(seen) <= 8 * depth


@settings(SEEDED, max_examples=300)
@given(SEEDS)
def test_parsed_table_is_the_walked_table_random(seed):
    # the parser builds the table, one row per distinct subformula, and
    # the body from it; it must be the table a walk over the parsed body
    # builds, row for row
    rng = random.Random(seed)
    prefix = ((EXISTS, "x"), (FORALL, "y")) if rng.random() < 0.5 else ()
    variables = tuple(v for _, v in prefix)

    def part():
        return random_ltl(rng, PROPS, rng.randrange(4), variables)

    # all five sugar connectives around random parts that may hold more
    # of them, one operand shared by several
    shared = part()
    sugar = [
        Implies(part(), shared),
        Iff(shared, part()),
        WeakUntil(part(), Eventually(shared)),
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
    assert phi.body == body
    assert compile_formula(phi) == core_table(phi.body)


def test_a_new_formula_compiles_its_own_body():
    # the parsed table is no field: neither the constructor nor
    # dataclasses.replace carries it over to a different body
    p = parse_hyperltl("exists x. G a_x -> F b_x")
    other = parse_hyperltl("exists x. a_x W (b_x <-> X a_x)").body
    for made in (
        HyperFormula(p.prefix, other),
        dataclasses.replace(p, body=other),
    ):
        assert compile_formula(made) == core_table(other)
        assert made == HyperFormula(p.prefix, other)
        assert repr(made) == (
            f"HyperFormula(prefix={p.prefix!r}, body={other!r})"
        )
    assert compile_formula(p) == core_table(p.body)


_COPIES = {
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": lambda p: dataclasses.replace(p, prefix=p.prefix),
}


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("how", sorted(_COPIES))
def test_copies_of_a_parsed_formula_keep_its_body_and_table(how, read_first):
    # a parsed body is made on first read, before or after the copy; each
    # copy reads an equal body, and the table a walk over it makes
    text = "exists x. forall y. G (a_x -> F b_y) & (a_y W !(b_x <-> X a_x))"
    p = parse_hyperltl(text)
    if read_first:
        assert p.body == reference_parse(text).body
    c = _COPIES[how](p)
    assert c == p and c.body == p.body and hash(c) == hash(p)
    assert c.body == reference_parse(text).body
    assert compile_formula(c) == compile_formula(p)
    for f in (c, p):
        assert compile_formula(f) == core_table(f.body)
    flipped = dataclasses.replace(c, prefix=((FORALL, "x"), (FORALL, "y")))
    assert flipped == HyperFormula(((FORALL, "x"), (FORALL, "y")), p.body)


def test_a_parsed_body_is_made_once_and_other_names_stay_missing():
    p = parse_hyperltl("exists x. G (a_x -> X b_x)")
    body = p.body
    assert p.body is body
    assert vars(p)["body"] is body
    for f in (p, HyperFormula(p.prefix, body)):
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            f.missing
    with pytest.raises(AttributeError, match="no attribute 'body'"):
        object.__new__(HyperFormula).body


def _node_samples() -> list:
    """Nodes of every type: for each, two equal objects and a third that
    differs from them."""
    a, b = Atom("a", "p"), Not(Atom("b"))
    samples = [
        Atom("a", "p"), Atom("a", "p"), Atom("a"),
        Const(True), Const(True), Const(False),
    ]
    for t in (Not, Next, Eventually, Globally):
        samples += [t(a), t(Atom("a", "p")), t(b)]
    for t in (And, Or, Implies, Iff, Until, Release, WeakUntil):
        samples += [t(a, b), t(Atom("a", "p"), Not(Atom("b"))), t(b, a)]
    return samples


def test_nodes_keep_the_surface_of_plain_dataclasses():
    # slotted nodes that hash on first use read, print, match, compare and
    # refuse writes to their fields as the plain frozen dataclasses do
    samples = _node_samples()
    assert {type(f) for f in samples} == set(PLAIN_NODES)
    plain = [plain_copy(f) for f in samples]
    for f, g in zip(samples, plain):
        assert repr(f) == repr(g)
        names = [field.name for field in dataclasses.fields(f)]
        assert names == [field.name for field in dataclasses.fields(g)]
        assert type(f).__match_args__ == type(g).__match_args__
        assert not hasattr(f, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, getattr(f, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(f, name)
    for f, g in zip(samples, plain):
        for f2, g2 in zip(samples, plain):
            assert (f == f2) is (g == g2)
            assert (f != f2) is (g != g2)
            if f == f2:
                assert hash(f) == hash(f2)
    match Iff(Const(False), Atom("a", "p")):
        case Iff(Const(True), _) | Iff(_, Atom(_, None)):
            raise AssertionError("matched the wrong node")
        case Iff(Const(False), Atom(name, trace)):
            assert (name, trace) == ("a", "p")


def test_nodes_pickle_and_copy():
    for f in _node_samples():
        for g in (
            pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f),
        ):
            assert type(g) is type(f) and g is not f
            assert g == f and hash(g) == hash(f) and repr(g) == repr(f)


def _node_objects(formula: Formula) -> list:
    """The distinct node objects of a formula, by identity, root first."""
    seen, out, stack = set(), [], [formula]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            out.append(f)
            for field in dataclasses.fields(f):
                child = getattr(f, field.name)
                if isinstance(child, Formula):
                    stack.append(child)
    return out


@settings(SEEDED, max_examples=200)
@given(SEEDS)
def test_hash_on_first_use_is_the_same_in_any_order(seed):
    # hash a random subset of the subformulas first, in random order, then
    # the root: hash and == agree with a fresh, unhashed build of the same
    # formula, and == with the plain dataclasses' equality
    def build(seed):
        f = random_ltl(random.Random(seed), PROPS, 5)
        return f, to_nnf(desugar(f))  # a tree and a DAG that shares nodes

    rng = random.Random(seed ^ 1)
    other = random_ltl(rng, PROPS, 5)
    for f, fresh in zip(build(seed), build(seed)):
        nodes = _node_objects(f)
        for g in rng.sample(nodes, rng.randrange(len(nodes) + 1)):
            hash(g)
        assert not any(
            hasattr(g, "_hash") for g in _node_objects(fresh)
            if g is not TRUE and g is not FALSE  # shared by every table
        )
        assert hash(f) == hash(fresh) and f == fresh
        assert all(hasattr(g, "_hash") for g in nodes)
        for g in rng.sample(nodes, min(len(nodes), 8)):
            for h in (other, fresh, rng.choice(nodes)):
                assert (g == h) is (plain_copy(g) == plain_copy(h))
                if g == h:
                    assert hash(g) == hash(h)


def test_made_and_parsed_nodes_hold_no_hash_until_asked():
    for body in (
        encode_pcp(SIX_STONES).body,
        parse_hyperltl("exists x. G (a_x -> F b_x) & !(b_x <-> X a_x)").body,
    ):
        nodes = _node_objects(body)
        assert not any(hasattr(g, "_hash") for g in nodes)
        hash(body)
        assert all(hasattr(g, "_hash") for g in nodes)


def test_a_stored_hash_refuses_writes():
    def build():
        return And(Atom("a", "p"), Until(Atom("b"), Not(Atom("a", "p"))))

    f = build()
    hash(f)
    for g in _node_objects(f):
        before = hash(g)
        with pytest.raises((TypeError, AttributeError)):
            g._hash = before + 1
        with pytest.raises((TypeError, AttributeError)):
            del g._hash
        assert hash(g) == before
    assert hash(f) == hash(build())


# Desugaring uses both operands of each <-> twice, so a d-link chain
# desugars to a DAG of O(d) distinct nodes whose tree has 2**(d+2) - 7
# nodes, and its NNF tree 15 * 2**(d-2) - 6.  At d = 40 every walk below
# must go by distinct nodes to finish at all.


def _iff_chain(depth: int, name: str = "a") -> HyperFormula:
    links = " <-> ".join(f"{name}{i}_p" for i in range(depth))
    return parse_hyperltl("exists p. " + links)


def test_chain_tree_sizes_follow_the_closed_forms():
    for depth in range(2, 12):
        g = desugar(_iff_chain(depth).body)
        normal = to_nnf(g)
        assert node_count(g) == len(reference_listing(g)[0])
        assert node_count(g) == 2 ** (depth + 2) - 7
        assert node_count(normal) == len(reference_listing(normal)[0])
        assert node_count(normal) == 15 * 2 ** (depth - 2) - 6


def test_shared_chain_node_count_is_linear():
    g = desugar(_iff_chain(40).body)
    assert node_count(g) == 2**42 - 7
    assert node_count(to_nnf(g)) == 15 * 2**38 - 6


def test_shared_chain_desugars_to_itself():
    g = desugar(_iff_chain(40).body)
    assert desugar(g) is g


def test_shared_chain_atoms_and_well_formedness_are_linear():
    phi = _iff_chain(40)
    g = desugar(phi.body)
    assert atom_names(g) == {f"a{i}" for i in range(40)}
    assert free_trace_variables(g) == {"p"}
    assert check_well_formed(HyperFormula(phi.prefix, to_nnf(g))) is None


def test_shared_chain_equality_is_linear():
    g = desugar(_iff_chain(40).body)
    twin = desugar(_iff_chain(40).body)
    assert g is not twin and g == twin
    assert hash(g) == hash(twin)
    # the NNF DAG, 15 * 2**38 - 6 nodes as a tree
    assert to_nnf(g) == to_nnf(twin)


def test_core_table_keeps_sugar_and_rejects_what_is_no_formula():
    # core_table keeps sugar as rows of its own, which to_nnf expands
    phi = And(Atom("a"), Eventually(Atom("b")))
    assert _nodes(core_table(phi))[-1] == phi
    with pytest.raises(TypeError, match="not a formula node: 'b'"):
        core_table(And(Atom("a"), Eventually("b")))
    with pytest.raises(TypeError, match="not a formula node: 'x'"):
        hash(Not("x"))
    with pytest.raises(TypeError, match="not a formula node: 'x'"):
        Not("x") == Not("x")


# The differential parser test parses formulas from a small grammar, with
# a few noise pieces spliced in.  'é' starts a name; '1a', '²' and '$' do
# not.
HEADS = ("", "forall p. ", "exists q. ", "forall p. exists q. ",
         "exists q.forall p.", "exists p", "forall forall p.")
ATOMS = ("a_p", "b_q", "a_r", "a", "a_b_p", "_x_q", "true", "false", "é_p")
NOISE = ("(", ")", "!", "&", "->", "<-", "-", ".", "X", "U", "exists",
         "_x", "1a", "²", "$", "é", " ")
formula_texts = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("!", "! ", "X ", "F ", "G ")), inner),
        st.tuples(st.just("("), inner, st.just(")")),
        st.tuples(
            inner,
            st.sampled_from(
                (" & ", "|", " -> ", "<->", " U ", " W ", " R ", " X ")
            ),
            inner,
        ),
    ).map("".join),
    max_leaves=8,
)


def _outcome(function, text):
    try:
        return function(text)
    except (ParseError, WellFormednessError) as e:
        return type(e), str(e), getattr(e, "position", None)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.sampled_from(HEADS),
    formula_texts,
    st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(NOISE)),
        max_size=2,
    ),
)
def test_parser_agrees_with_reference_parser(head, body, noise):
    text = head + body
    for at, piece in noise:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    assert _outcome(parse_hyperltl, text) == _outcome(reference_parse, text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(HEADS[:5]), formula_texts)
def test_parsed_table_is_the_walked_table_by_precedence(head, body):
    # unparenthesized text, so a sugar token's own reductions run before
    # it makes the rows of its left operand's negation
    try:
        phi = parse_hyperltl(head + body)
    except (ParseError, WellFormednessError):
        return
    assert compile_formula(phi) == core_table(phi.body)


def _all_node_types_body(rng):
    """A random body in which each of the 13 node types occurs: every
    connective applied to random parts, over both constants."""
    def part():
        return random_ltl(rng, PROPS, rng.randrange(3))

    unary = [t(part()) for t in (Not, Next, Eventually, Globally)]
    binary = [
        t(part(), part())
        for t in (And, Or, Implies, Iff, Until, Release, WeakUntil)
    ]
    parts = unary + binary + [Atom(rng.choice(PROPS)), TRUE, FALSE]
    rng.shuffle(parts)
    body = parts[0]
    for other in parts[1:]:
        body = rng.choice((And, Or, Implies, Iff, Until, Release, WeakUntil))(
            body, other
        )
    return body


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_table_passes_equal_the_tree_passes_random(seed):
    # desugar and to_nnf on a parsed formula's table and on its body's
    # tree give equal bodies, and both the reference NNF of the
    # reference-desugared body
    rng = random.Random(seed)
    body = _all_node_types_body(rng)
    phi = parse_hyperltl(render(body))
    cored = desugar(phi)
    normal = to_nnf(cored)
    assert cored.prefix == normal.prefix == ()
    assert cored.body == desugar(body) == reference_desugar(body)
    assert normal.body == to_nnf(desugar(body))
    assert normal.body == reference_nnf(reference_desugar(body))
    assert node_count(normal) == node_count(normal.body)
    # the NNF rows come in the order core_table's walk makes them, which
    # the tableau's decisions follow
    assert normal._table == core_table(normal.body)


def _reduced(phi):
    """The prefix-free formula solve hands to to_nnf."""
    match classify(phi):
        case ForallStar():
            return drop_quantifiers(phi).formula
        case ExistsStar():
            return zip_exists(phi).formula
        case ExistsForall():
            return zip_exists(unroll_universals(phi)).formula


def assert_to_nnf_expands_sugar_row_for_row(formula):
    assert to_nnf(formula)._table == to_nnf(desugar(formula))._table


@settings(SEEDED, max_examples=150)
@given(SEEDS)
def test_to_nnf_expands_sugar_row_for_row_random(seed):
    # to_nnf walks sugar rows too, each expanded once by its desugaring
    # rule and walked in the polarity it is reached in, so it makes the
    # rows to_nnf(desugar(f)) makes, in the same order; a bare Formula
    # comes back as the equal tree
    body = _all_node_types_body(random.Random(seed))
    assert_to_nnf_expands_sugar_row_for_row(parse_hyperltl(render(body)))
    phi = parse_hyperltl("exists p. forall q. " + render(map_atoms(
        body, lambda a: Atom(a.name, "p" if a.name == "p" else "q")
    )))
    assert_to_nnf_expands_sugar_row_for_row(phi)
    assert_to_nnf_expands_sugar_row_for_row(_reduced(phi))
    assert to_nnf(body) == to_nnf(desugar(body))
    assert to_nnf(body) == reference_nnf(reference_desugar(body))


def test_to_nnf_expands_sugar_row_for_row_golden():
    # every golden sat and implies text, parsed and reduced
    checked = 0
    for name in ("sat_mix.jsonl", "large_automata.jsonl", "implies.jsonl"):
        for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
            text = json.loads(line)["text"]
            for phi in map(parse_hyperltl, [text] if isinstance(text, str)
                           else text):
                assert_to_nnf_expands_sugar_row_for_row(phi)
                assert_to_nnf_expands_sugar_row_for_row(_reduced(phi))
                checked += 1
    assert checked == 1410
