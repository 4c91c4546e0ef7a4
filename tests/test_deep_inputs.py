"""Formulas nested far deeper than the interpreter's recursion limit.

Parsing, rendering, printing with repr, hashing, equality and evaluation
all run on explicit stacks, so these inputs only cost time and memory."""

import subprocess
import sys

import pytest

from hypersat.cli import main
from hypersat.syntax import parse_hyperltl, render

from oracles import reference_render

DEEP = {
    "conjunction-chain": "exists p. " + " & ".join(["a_p"] * 25_000),
    "nested-parentheses": "exists p. " + "(" * 20_000 + "a_p" + ")" * 20_000,
    "until-chain": "exists p. " + " U ".join(["a_p"] * 20_000),
    "next-chain": "exists p. " + "X " * 20_000 + "a_p",
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_formula_round_trips_and_hashes(text):
    phi = parse_hyperltl(text)
    assert parse_hyperltl(render(phi)) == phi
    assert hash(parse_hyperltl(text)) == hash(phi)


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_formula_renders_like_the_reference_fold(text):
    phi = parse_hyperltl(text)
    assert render(phi) == reference_render(phi)


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_formula_evaluates_through_the_cli(text, tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("| {a}\n", encoding="utf-8")
    formula = tmp_path / "formula.hltl"
    formula.write_text(text, encoding="utf-8")
    assert main(["eval", str(model), str(formula)]) == 0
    assert capsys.readouterr().out == "TRUE\n"


def test_deep_formula_repr_is_the_dataclass_text():
    # the default recursion limit, 1,000, is below the depth
    assert sys.getrecursionlimit() < 2_000
    body = parse_hyperltl("X " * 2000 + "a").body
    want = "Next(operand=" * 2000 + "Atom(name='a', trace=None)" + ")" * 2000
    assert repr(body) == want


def test_import_leaves_the_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); import hypersat; "
        "print(sys.getrecursionlimit() == before)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "True\n"


def test_long_prefix_enumerates_on_a_loop(tmp_path, capsys):
    # 1,200 variables over two traces: all but the innermost 15 are
    # enumerated, and the forall fails at its first assignment
    names = [f"x{i}" for i in range(1_200)]
    text = " ".join(f"forall {x}." for x in names) + " " + " & ".join(
        f"F a_{x}" for x in names
    )
    model = tmp_path / "model.txt"
    model.write_text("| {}\n{} | {a}\n", encoding="utf-8")
    formula = tmp_path / "formula.hltl"
    formula.write_text(text, encoding="utf-8")
    assert main(["eval", str(model), str(formula)]) == 0
    assert capsys.readouterr().out == "FALSE\n"
