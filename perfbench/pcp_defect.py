"""Reproducer of the known correspondence-encoding defect counted by the
eval-pcp workload.  Run from the repository root:

    python3 perfbench/pcp_defect.py

The instance (ba, b), (a, aa), (a, a) is solved by 1, 2, 3 (both sides
spell baaa), yet the library's evaluator and the test suite's independent
naive evaluator both find the encoding false on the witness trace set.
Prints both verdicts; exits 1 while the defect is present.
"""

from __future__ import annotations

import sys

import workload  # puts src/ and tests/ on the path
from hypersat import encode_pcp, evaluate_hyperltl
from hypersat.pcp import PcpInstance, encode_solution_traceset

STONES = (("ba", "b"), ("a", "aa"), ("a", "a"))
SOLUTION = [1, 2, 3]


def main() -> int:
    instance = PcpInstance(("a", "b"), STONES)
    formula = encode_pcp(instance)
    witness = encode_solution_traceset(instance, SOLUTION)
    library = evaluate_hyperltl(witness, formula)
    oracle = workload.holds_over(witness.sorted(), formula)
    print(f"stones {STONES}, solution {SOLUTION}")
    print(f"evaluate_hyperltl on the witness: {library}")
    print(f"naive_eval_hyper on the witness:  {oracle}")
    return 0 if library and oracle else 1


if __name__ == "__main__":
    sys.exit(main())
