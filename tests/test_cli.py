"""Command-line behavior: verdict text, exit codes, JSON shape."""

import json
import subprocess
import sys

import pytest

from hypersat import cli
from hypersat.cli import main

FORALL_GOLDEN = "forall p1. forall p2. (G b_p1) & (G !b_p2)"
EXISTS_GOLDEN = "exists p1. exists p2. a_p1 & (G !b_p1) & (G b_p2)"
PCP_INSTANCE = json.dumps(
    {"alphabet": ["a", "b"],
     "stones": [["a", "baa"], ["ab", "aa"], ["bba", "bb"]]}
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sat_unsat_verdict(write, capsys):
    path = write("od.hltl", FORALL_GOLDEN)
    code, out, _ = run_main(capsys, "sat", path)
    assert code == 0
    assert out == "UNSAT\n"


def test_sat_model_lines(write, capsys):
    path = write("ex.hltl", EXISTS_GOLDEN)
    code, out, _ = run_main(capsys, "sat", path, "--model")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "SAT"
    assert len(lines) == 3
    assert all("|" in line for line in lines[1:])


def test_sat_without_model_flag_prints_verdict_only(write, capsys):
    path = write("ex.hltl", EXISTS_GOLDEN)
    code, out, _ = run_main(capsys, "sat", path)
    assert code == 0
    assert out == "SAT\n"


def test_sat_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(FORALL_GOLDEN))
    code, out, _ = run_main(capsys, "sat", "-")
    assert code == 0
    assert out == "UNSAT\n"


def test_sat_json_shape(write, capsys):
    path = write("ex.hltl", EXISTS_GOLDEN)
    code, out, _ = run_main(capsys, "sat", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SAT"
    assert doc["verified"] is True
    assert isinstance(doc["model"], list) and len(doc["model"]) == 2
    assert set(doc["stats"]) == {"conjuncts", "automaton_states"}
    assert doc["stats"]["automaton_states"] > 0


def test_sat_unsupported_fragment_exit_code(write, capsys):
    path = write("fe.hltl", "forall p. exists q. a_p & !a_q")
    code, out, _ = run_main(capsys, "sat", path)
    assert code == 3
    assert out == "UNSUPPORTED: forall-exists\n"


def test_sat_blowup_exit_code(write, capsys):
    path = write(
        "blow.hltl",
        "exists e1. exists e2. forall u1. forall u2. "
        "a_e1 & a_e2 & (a_u1 | a_u2)",
    )
    code, out, _ = run_main(capsys, "sat", path, "--max-unroll", "3")
    assert code == 4
    assert out == "BLOWUP: needs 4 conjuncts, limit 3\n"


def test_sat_parse_error_exit_code(write, capsys):
    path = write("bad.hltl", "exists p. a_p &")
    code, out, err = run_main(capsys, "sat", path)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_main(capsys, "sat", "/nonexistent/formula.hltl")
    assert code == 2
    assert "error:" in err


def test_implies_holds(write, capsys):
    weak = write("w.hltl", "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))")
    box = write(
        "b.hltl", "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"
    )
    code, out, _ = run_main(capsys, "implies", weak, box)
    assert code == 0
    assert out == "HOLDS\n"


def test_implies_fails_with_countermodel(write, capsys):
    weak = write("w.hltl", "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))")
    box = write(
        "b.hltl", "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"
    )
    code, out, _ = run_main(capsys, "implies", box, weak, "--model")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "FAILS"
    assert len(lines) >= 2


def test_implies_double_stdin_rejected(capsys):
    code, _, err = run_main(capsys, "implies", "-", "-")
    assert code == 2
    assert "stdin" in err


def test_implies_unsupported(write, capsys):
    mixed = write("m.hltl", "exists p. forall q. a_p & a_q")
    plain = write("p.hltl", "exists p. a_p")
    code, out, _ = run_main(capsys, "implies", mixed, plain)
    assert code == 3
    assert out == "UNSUPPORTED: implication\n"


def test_classify(write, capsys):
    cases = {
        FORALL_GOLDEN: "forall-star",
        EXISTS_GOLDEN: "exists-star",
        "exists p. forall q. a_p & a_q": "exists-forall",
        "forall p. exists q. a_p & a_q": "forall-exists",
        "exists p. forall q. exists r. a_p & a_q & a_r": "multi-alternation",
    }
    for i, (text, expected) in enumerate(cases.items()):
        path = write(f"c{i}.hltl", text)
        code, out, _ = run_main(capsys, "classify", path)
        assert code == 0
        assert out == expected + "\n"


def test_encode_pcp_formula(write, capsys):
    path = write("inst.json", PCP_INSTANCE)
    code, out, _ = run_main(capsys, "encode-pcp", path)
    assert code == 0
    assert out.startswith("forall pi. exists pis. exists pip.")


def test_encode_pcp_solution_traces(write, capsys):
    inst = write("inst.json", PCP_INSTANCE)
    sol = write("sol.json", json.dumps({"indices": [3, 2, 3, 1]}))
    code, out, _ = run_main(capsys, "encode-pcp", inst, "--solution", sol)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("| {p_hash_hash}") for line in lines)


def test_encode_pcp_solution_makes_no_formula(write, capsys, monkeypatch):
    # --solution without --json prints the witness only, so the formula is
    # neither encoded nor rendered
    inst = write("inst.json", PCP_INSTANCE)
    sol = write("sol.json", json.dumps({"indices": [3, 2, 3, 1]}))
    expected = run_main(capsys, "encode-pcp", inst, "--solution", sol)

    def encode_pcp(_):
        raise AssertionError("a formula encoded for --solution")

    monkeypatch.setattr(cli.pcp, "encode_pcp", encode_pcp)
    assert run_main(capsys, "encode-pcp", inst, "--solution", sol) == expected


def test_encode_pcp_json(write, capsys):
    inst = write("inst.json", PCP_INSTANCE)
    sol = write("sol.json", json.dumps({"indices": [3, 2, 3, 1]}))
    code, out, _ = run_main(
        capsys, "encode-pcp", inst, "--solution", sol, "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "OK"
    assert doc["formula"].startswith("forall pi.")
    assert len(doc["model"]) == 5


def test_encode_pcp_bad_instance(write, capsys):
    path = write("inst.json", json.dumps({"alphabet": ["a", "a"],
                                          "stones": [["a", "a"]]}))
    code, _, err = run_main(capsys, "encode-pcp", path)
    assert code == 2
    assert "error:" in err


def test_eval_true_and_false(write, capsys):
    model = write("model.txt", "| {a}\n| {b}\n")
    phi = write("ex.hltl", EXISTS_GOLDEN)
    code, out, _ = run_main(capsys, "eval", model, phi)
    assert code == 0
    assert out == "TRUE\n"
    bad = write("od.hltl", FORALL_GOLDEN)
    code, out, _ = run_main(capsys, "eval", model, bad)
    assert code == 0
    assert out == "FALSE\n"


def test_eval_pcp_fixture(write, capsys, tmp_path):
    inst = write("inst.json", PCP_INSTANCE)
    sol = write("sol.json", json.dumps({"indices": [3, 2, 3, 1]}))
    code = main(["encode-pcp", inst, "--solution", sol])
    traces = capsys.readouterr().out
    model = write("model.txt", traces)
    code = main(["encode-pcp", inst])
    formula = capsys.readouterr().out
    phi = write("pcp.hltl", formula)
    code, out, _ = run_main(capsys, "eval", model, phi)
    assert code == 0
    assert out == "TRUE\n"


def test_eval_period_guard_exit_code(write, capsys):
    lines = []
    for n in (2, 3, 5, 7, 11, 13):
        blocks = " ".join("{p}" if i == 0 else "{}" for i in range(n))
        lines.append(f"| {blocks}")
    model = write("model.txt", "\n".join(lines) + "\n")
    phi = write("phi.hltl", "forall x. F p_x")
    code, _, err = run_main(capsys, "eval", model, phi)
    assert code == 4
    assert "error:" in err
    code, out, _ = run_main(
        capsys, "eval", model, phi, "--max-period", "100000"
    )
    assert code == 0
    assert out == "TRUE\n"


def test_no_verify_flag(write, capsys):
    path = write("ex.hltl", EXISTS_GOLDEN)
    code, out, _ = run_main(capsys, "sat", path, "--no-verify", "--json")
    assert code == 0
    assert json.loads(out)["verified"] is False


def test_subprocess_byte_identical(write):
    path = write("ex.hltl", EXISTS_GOLDEN)
    cmd = [sys.executable, "-m", "hypersat", "sat", path, "--model", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


GF6 = "exists p. " + " & ".join(f"G F b{i}_p" for i in range(1, 7))
WEAK_OD = "forall p. forall q. (o_p <-> o_q) W (!(i_p <-> i_q))"
BOX_OD = "forall p. forall q. (G (i_p <-> i_q)) -> (G (o_p <-> o_q))"


def test_subprocess_pinned_sat_model(write):
    path = write("gf6.hltl", GF6)
    proc = subprocess.run(
        [sys.executable, "-m", "hypersat", "sat", path, "--model", "--json"],
        capture_output=True, check=True,
    )
    assert proc.stdout == (
        b'{"model": ["{b1,b2,b3,b4,b5,b6} | {b1,b2,b3,b4,b5,b6}"], '
        b'"stats": {"automaton_states": 128, "conjuncts": null}, '
        b'"verdict": "SAT", "verified": true}\n'
    )


def test_subprocess_pinned_countermodel(write):
    box, weak = write("box.hltl", BOX_OD), write("weak.hltl", WEAK_OD)
    proc = subprocess.run(
        [sys.executable, "-m", "hypersat", "implies", box, weak, "--model",
         "--json"],
        capture_output=True, check=True,
    )
    assert proc.stdout == (
        b'{"model": ["{i} {o} | {o}", "{i,o} {i,o} | {o}"], '
        b'"stats": {"automaton_states": null, "conjuncts": null}, '
        b'"verdict": "FAILS"}\n'
    )


BLOWUP_E2A2 = (
    "exists e1. exists e2. forall u1. forall u2. a_e1 & a_e2 & (a_u1 | a_u2)"
)
# Every resource limit exits 4; sat reports an unrolling limit on stdout,
# every other limit is one stderr line.
LIMIT_PINS = [
    (["sat", "{e2a2}", "--max-unroll", "3"],
     b"BLOWUP: needs 4 conjuncts, limit 3\n", b""),
    (["sat", "--json", "{e2a2}", "--max-unroll", "3"],
     b'{"model": null, "stats": {"automaton_states": null, "conjuncts": 4}, '
     b'"verdict": "BLOWUP: needs 4 conjuncts, limit 3"}\n', b""),
    (["implies", "{g}", "{f}", "--max-unroll", "3"],
     b"", b"error: unrolling needs 4 conjuncts, limit is 3\n"),
    (["sat", "--model", "{alternating}", "--max-period", "1"],
     b"", b"error: combined evaluation period 2 exceeds guard 1\n"),
]


@pytest.mark.parametrize(
    "argv, stdout, stderr", LIMIT_PINS,
    ids=["sat", "sat-json", "implies", "period"],
)
def test_subprocess_pinned_resource_limits(write, argv, stdout, stderr):
    files = {
        "e2a2": write("e2a2.hltl", BLOWUP_E2A2),
        "g": write("g.hltl", "forall p. forall q. G (a_p <-> a_q)"),
        "f": write("f.hltl", "forall p. forall q. F (a_p <-> a_q)"),
        "alternating": write("alt.hltl", "exists p. G (a_p <-> X !a_p)"),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "hypersat",
         *(arg.format(**files) for arg in argv)],
        capture_output=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, stdout, stderr)


# A bad argument exits 2 with one "error: " line, whichever command gets it.
ARGUMENT_PINS = [
    (["sat", "{phi}", "--max-period", "0"],
     "error: limits must be at least 1\n"),
    (["eval", "{model}", "{phi}", "--max-period", "0"],
     "error: limits must be at least 1\n"),
    (["eval", "{model}", "{phi}", "--max-period", "-3"],
     "error: limits must be at least 1\n"),
    (["implies", "-", "-"], "error: only one input may come from stdin\n"),
    (["eval", "-", "-"], "error: only one input may come from stdin\n"),
    (["encode-pcp", "-", "--solution", "-"],
     "error: only one input may come from stdin\n"),
]


@pytest.mark.parametrize(
    "argv, stderr", ARGUMENT_PINS,
    ids=["sat-period", "eval-period", "eval-negative-period",
         "implies-stdin", "eval-stdin", "encode-pcp-stdin"],
)
def test_bad_arguments_pinned(write, capsys, argv, stderr):
    files = {
        "phi": write("phi.hltl", "forall x. F p_x"),
        "model": write("model.txt", "| {p}\n"),
    }
    code, out, err = run_main(capsys, *(arg.format(**files) for arg in argv))
    assert (code, out, err) == (2, "", stderr)


# A malformed model exits 2 and names the offset of the fault in its text.
MODEL_ERROR_PINS = [
    ("| {p}\n{p} {q}\n",
     b"error: parse error at position 13: "
     b"a trace needs exactly one '|' separator\n"),
    ("| {p}\n{p} | {p} | {}\n",
     b"error: parse error at position 16: "
     b"a trace needs exactly one '|' separator\n"),
    ("| {p}\n{p} |  \n",
     b"error: parse error at position 13: a trace needs a non-empty loop\n"),
    ("| {p}\n| {p}, {q}\n",
     b"error: parse error at position 8: "
     b"expected a {...} valuation, found '{p},'\n"),
    ("| {p}\n\n{p,2q} | {}\n",
     b"error: parse error at position 10: bad proposition name '2q'\n"),
    ("\n  \n", b"error: parse error at position 4: empty trace set\n"),
]


@pytest.mark.parametrize(
    "model, stderr", MODEL_ERROR_PINS,
    ids=["no-bar", "two-bars", "no-loop", "valuation", "name", "empty"],
)
def test_subprocess_pinned_model_errors(write, model, stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "hypersat", "eval",
         write("model.txt", model), write("phi.hltl", "forall x. F p_x")],
        capture_output=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", stderr)


def test_subprocess_exit_codes(write):
    path = write("fe.hltl", "forall p. exists q. a_p & !a_q")
    proc = subprocess.run(
        [sys.executable, "-m", "hypersat", "sat", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == "UNSUPPORTED: forall-exists\n"


def test_unexpected_exception_is_one_line_without_traceback(
    write, capsys, monkeypatch
):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    code, out, err = run_main(capsys, "classify", write("ex.hltl", EXISTS_GOLDEN))
    assert code == 1
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"

