"""Correspondence-problem encoding and witness construction."""

import json

import pytest

from hypersat import syntax
from hypersat.cli import main
from hypersat.errors import InvalidInstance, NotASolution
from hypersat.fragments import ForallExists, classify
from hypersat.models import TraceSet, evaluate_hyperltl
from hypersat.pcp import (
    PairAlphabet,
    PcpInstance,
    encode_pcp,
    encode_solution_traceset,
    parse_instance,
    parse_solution,
)
from hypersat.solver import UnsupportedFragment, hyper_sat
from hypersat.syntax import EXISTS, FORALL, parse_hyperltl, render

from generators import SIX_STONES
from oracles import make_trace, naive_holds

EXAMPLE = PcpInstance(("a", "b"), (("a", "baa"), ("ab", "aa"), ("bba", "bb")))


def pair_trace(*pairs):
    stem = [{f"p_{x}_{y}"} for x, y in pairs]
    return make_trace(stem, [{"p_hash_hash"}])


def test_pair_alphabet_size():
    pa = PairAlphabet(("a", "b"))
    assert len(pa.symbols()) == 2 * 2 + 1
    assert len(pa.all_props()) == (2 * 2 + 1) ** 2
    assert set(pa.variants("a")) == {"a", "da"}
    assert pa.prop("da", "b") == "p_da_b"


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        PcpInstance(("a", "b"), (("a", ""),))
    with pytest.raises(InvalidInstance):
        PcpInstance(("a", "a"), (("a", "a"),))
    with pytest.raises(InvalidInstance):
        PcpInstance((), (("a", "a"),))
    with pytest.raises(InvalidInstance):
        PcpInstance(("a",), ())
    with pytest.raises(InvalidInstance):
        PcpInstance(("a",), (("a", "ab"),))
    with pytest.raises(InvalidInstance):
        PcpInstance(("a", "#"), (("a", "a"),))


def test_encoded_prefix_shape():
    phi = encode_pcp(EXAMPLE)
    assert phi.prefix == ((FORALL, "pi"), (EXISTS, "pis"), (EXISTS, "pip"))
    assert classify(phi) == ForallExists(0)


def test_encoded_formula_mentions_required_clauses():
    text = render(encode_pcp(EXAMPLE))
    # solution trace starts with a dotted pair of equal symbols
    assert "p_da_da_pis" in text
    assert "p_db_db_pis" in text
    # synchronous termination of the solution trace
    assert "U (G p_hash_hash_pis)" in text
    # every trace eventually ends with hash pairs
    assert "F (G p_hash_hash_pi)" in text


def test_encoded_formula_refused_by_solver():
    result = hyper_sat(encode_pcp(EXAMPLE))
    assert isinstance(result, UnsupportedFragment)
    assert isinstance(result.fragment, ForallExists)


def test_solution_traceset_reproduces_known_chain():
    got = encode_solution_traceset(EXAMPLE, [3, 2, 3, 1])
    expected = TraceSet(
        frozenset(
            {
                pair_trace(
                    ("db", "db"), ("b", "b"), ("a", "da"), ("da", "a"),
                    ("b", "db"), ("db", "b"), ("b", "db"), ("a", "a"),
                    ("da", "a"),
                ),
                pair_trace(
                    ("da", "da"), ("b", "a"), ("db", "db"), ("b", "b"),
                    ("a", "db"), ("da", "a"), ("hash", "a"),
                ),
                pair_trace(
                    ("db", "db"), ("b", "b"), ("a", "db"), ("da", "a"),
                    ("hash", "a"),
                ),
                pair_trace(("da", "db"), ("hash", "a"), ("hash", "a")),
                pair_trace(),
            }
        )
    )
    assert got == expected


def test_solution_traceset_satisfies_encoded_formula():
    model = encode_solution_traceset(EXAMPLE, [3, 2, 3, 1])
    assert evaluate_hyperltl(model, encode_pcp(EXAMPLE))


def test_single_stone_instance():
    inst = PcpInstance(("a",), (("a", "a"),))
    model = encode_solution_traceset(inst, [1])
    assert model == TraceSet(
        frozenset({pair_trace(("da", "da")), pair_trace()})
    )
    assert evaluate_hyperltl(model, encode_pcp(inst))


def test_length_mismatch_is_not_a_solution():
    inst = PcpInstance(("a", "b"), (("a", "b"),))
    with pytest.raises(NotASolution):
        encode_solution_traceset(inst, [1])
    with pytest.raises(NotASolution):
        encode_solution_traceset(EXAMPLE, [1])


def test_solution_indices_validated():
    with pytest.raises(InvalidInstance):
        encode_solution_traceset(EXAMPLE, [])
    with pytest.raises(InvalidInstance):
        encode_solution_traceset(EXAMPLE, [0])
    with pytest.raises(InvalidInstance):
        encode_solution_traceset(EXAMPLE, [4])


def test_singleton_discipline_in_constructed_traces():
    model = encode_solution_traceset(EXAMPLE, [3, 2, 3, 1])
    for trace in model:
        for valuation in (*trace.stem, *trace.loop):
            assert len(valuation) == 1


def test_another_known_solution_round_trips():
    # stones (ab, a), (b, bb): indices (1, 2) give abb on both sides
    inst = PcpInstance(("a", "b"), (("ab", "a"), ("b", "bb")))
    model = encode_solution_traceset(inst, [1, 2])
    assert evaluate_hyperltl(model, encode_pcp(inst))


def test_shorter_final_stones_pad_with_hash():
    # stones (ba, b), (a, aa), (a, a): indices (1, 2, 3) spell baaa on both
    # sides; the suffix after stone 1 pads its top with hash under stone 2
    inst = PcpInstance(("a", "b"), (("ba", "b"), ("a", "aa"), ("a", "a")))
    formula = encode_pcp(inst)
    model = encode_solution_traceset(inst, [1, 2, 3])
    assert evaluate_hyperltl(model, formula)
    assert naive_holds(model.sorted(), formula)
    suffix = pair_trace(("da", "da"), ("da", "a"), ("hash", "da"))
    assert suffix in model
    pruned = TraceSet(model.traces - {suffix})
    assert not evaluate_hyperltl(pruned, formula)
    assert not naive_holds(pruned.sorted(), formula)

def test_parse_instance_json():
    inst = parse_instance(
        json.dumps(
            {"alphabet": ["a", "b"],
             "stones": [["a", "baa"], ["ab", "aa"], ["bba", "bb"]]}
        )
    )
    assert inst == EXAMPLE


def test_parse_instance_errors():
    with pytest.raises(InvalidInstance):
        parse_instance("not json")
    with pytest.raises(InvalidInstance):
        parse_instance(json.dumps({"alphabet": ["a"]}))
    with pytest.raises(InvalidInstance):
        parse_instance(json.dumps({"alphabet": "ab", "stones": []}))


def test_parse_solution_json():
    assert parse_solution(json.dumps({"indices": [3, 2, 3, 1]})) == [3, 2, 3, 1]
    with pytest.raises(InvalidInstance):
        parse_solution(json.dumps({"indices": "321"}))
    with pytest.raises(InvalidInstance):
        parse_solution("[]")


@pytest.mark.parametrize(
    "instance",
    [
        EXAMPLE,
        PcpInstance(("a",), (("a", "a"),)),
        PcpInstance(("a", "b"), (("a", "b"),)),
        PcpInstance(("a", "b"), (("ab", "a"), ("b", "bb"))),
        PcpInstance(("a", "b"), (("ba", "b"), ("a", "aa"), ("a", "a"))),
        SIX_STONES,
    ],
    ids=["example", "one-stone", "mismatch", "two-stones", "padded",
         "six-stones"],
)
def test_full_encoding_round_trips_through_text(instance):
    # the six-stone text nests parentheses 1,179 deep, past the reach of
    # the recursive reference parser
    formula = encode_pcp(instance)
    text = render(formula)
    reparsed = parse_hyperltl(text)
    assert reparsed == formula
    assert render(reparsed) == text


def test_six_stone_witness_satisfies_its_reparsed_encoding():
    text = render(encode_pcp(SIX_STONES))
    assert len(text) > 60_000
    model = encode_solution_traceset(SIX_STONES, [1, 2, 3, 4, 5, 6])
    assert evaluate_hyperltl(model, parse_hyperltl(text))


def test_encoding_rendering_and_evaluation_make_no_nodes(
    monkeypatch, tmp_path, capsys
):
    # the encoder builds its table and render writes from the rows, so
    # neither makes a formula node, and neither does evaluating the
    # reparsed text: the CLI's encode-pcp and eval agree with the library
    # with every node constructor and the table-to-node loop made to fail
    text = render(encode_pcp(SIX_STONES))
    model = encode_solution_traceset(SIX_STONES, [1, 2, 3, 4, 5, 6])

    def refuse(*_, **__):
        raise AssertionError("a formula node on the correspondence path")

    monkeypatch.setattr(syntax, "_nodes", refuse)
    for node_type in syntax._TYPES:
        monkeypatch.setattr(node_type, "__init__", refuse)
    assert render(encode_pcp(SIX_STONES)) == text
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({
        "alphabet": list(SIX_STONES.alphabet),
        "stones": [list(stone) for stone in SIX_STONES.stones],
    }))
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"indices": [1, 2, 3, 4, 5, 6]}))
    outputs = {}
    for name, argv in (
        ("formula.hltl", ["encode-pcp", str(instance)]),
        ("model.txt", ["encode-pcp", str(instance), "--solution",
                       str(solution)]),
    ):
        assert main(argv) == 0
        outputs[name] = tmp_path / name
        outputs[name].write_text(capsys.readouterr().out)
    assert outputs["formula.hltl"].read_text() == text + "\n"
    assert evaluate_hyperltl(model, parse_hyperltl(text))
    assert main(["eval", str(outputs["model.txt"]),
                 str(outputs["formula.hltl"])]) == 0
    assert capsys.readouterr() == ("TRUE\n", "")
