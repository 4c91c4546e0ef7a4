"""The golden corpus: fixed sat, implies and encode-pcp requests answer
exactly as recorded in tests/golden/ (written by tests/make_golden.py)."""

import json
from pathlib import Path

import pytest

from make_golden import answer

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, count",
    [
        ("sat_mix.jsonl", 1000),
        ("large_automata.jsonl", 8),
        ("implies.jsonl", 200),
        ("encode_pcp.jsonl", 10),
    ],
)
def test_requests_answer_as_recorded(name, count):
    lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert len(lines) == count
    for line in lines:
        recorded = json.loads(line)
        assert answer(recorded["text"]) == recorded, recorded["text"]
