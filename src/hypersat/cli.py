"""Command-line interface.

Subcommands: sat, implies, classify, encode-pcp, eval.  Any FILE argument
may be '-' for stdin.  Exit codes: 0 decided or answered, 1 internal
error, 2 malformed input, 3 unsupported fragment, 4 resource limit
(conjunct blow-up or period guard).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors, pcp
from .fragments import classify
from .implication import Fails, Holds, Unsupported, check_implication
from .models import (
    DEFAULT_PERIOD_GUARD,
    evaluate_hyperltl,
    format_trace,
    parse_trace_set,
)
from .reductions import DEFAULT_UNROLL_LIMIT
from .solver import (
    Sat,
    SolveStats,
    SolverOptions,
    Unsat,
    UnsupportedFragment,
    solve,
)
from .syntax import parse_hyperltl, render

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_LIMIT = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(args, verdict: str, model=None, stats=None, extra=None) -> None:
    if args.json:
        obj = {
            "verdict": verdict,
            "model": model,
            "stats": {
                "conjuncts": getattr(stats, "conjuncts", None),
                "automaton_states": getattr(stats, "automaton_states", None),
            },
        }
        if extra:
            obj.update(extra)
        print(json.dumps(obj, sort_keys=True))
        return
    print(verdict)
    if model is not None and getattr(args, "model", False):
        for line in model:
            print(line)


def _options(args) -> SolverOptions:
    return SolverOptions(
        unroll_limit=args.max_unroll,
        verify_models=not args.no_verify,
        period_guard=args.max_period,
    )


def _model_lines(trace_set) -> list[str]:
    return [format_trace(t) for t in trace_set.sorted()]


def cmd_sat(args) -> int:
    formula = parse_hyperltl(_read(args.file))
    try:
        result, stats = solve(formula, _options(args))
    except errors.ResourceLimit as e:
        if e.kind != "unroll":
            raise
        _emit(
            args,
            f"BLOWUP: needs {e.required} conjuncts, limit {e.limit}",
            None,
            SolveStats(conjuncts=e.required),
        )
        return EXIT_LIMIT
    match result:
        case Sat(model, verified):
            _emit(
                args,
                "SAT",
                _model_lines(model),
                stats,
                {"verified": verified},
            )
            return EXIT_OK
        case Unsat():
            _emit(args, "UNSAT", None, stats)
            return EXIT_OK
        case UnsupportedFragment(fragment, message):
            _emit(
                args,
                f"UNSUPPORTED: {fragment.name}",
                None,
                stats,
                {"message": message},
            )
            return EXIT_UNSUPPORTED
    raise errors.InternalError(f"unhandled result {result!r}")


def cmd_implies(args) -> int:
    if args.antecedent == "-" and args.consequent == "-":
        raise ValueError("only one input may come from stdin")
    antecedent = parse_hyperltl(_read(args.antecedent))
    consequent = parse_hyperltl(_read(args.consequent))
    verdict = check_implication(antecedent, consequent, _options(args))
    match verdict:
        case Holds():
            _emit(args, "HOLDS")
            return EXIT_OK
        case Fails(countermodel):
            _emit(args, "FAILS", _model_lines(countermodel))
            return EXIT_OK
        case Unsupported(message):
            _emit(args, "UNSUPPORTED: implication", None, None, {"message": message})
            return EXIT_UNSUPPORTED
    raise errors.InternalError(f"unhandled verdict {verdict!r}")


def cmd_classify(args) -> int:
    formula = parse_hyperltl(_read(args.file))
    cls = classify(formula)
    _emit(args, cls.name)
    return EXIT_OK


def cmd_encode_pcp(args) -> int:
    if args.instance == "-" and args.solution == "-":
        raise ValueError("only one input may come from stdin")
    instance = pcp.parse_instance(_read(args.instance))
    trace_lines = None
    if args.solution is not None:
        indices = pcp.parse_solution(_read(args.solution))
        trace_set = pcp.encode_solution_traceset(instance, indices)
        trace_lines = _model_lines(trace_set)
    # The formula is encoded only when it is printed.
    if args.json:
        formula_text = render(pcp.encode_pcp(instance))
        _emit(args, "OK", trace_lines, None, {"formula": formula_text})
    elif trace_lines is not None:
        for line in trace_lines:
            print(line)
    else:
        print(render(pcp.encode_pcp(instance)))
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.model_file == "-" and args.file == "-":
        raise ValueError("only one input may come from stdin")
    trace_set = parse_trace_set(_read(args.model_file))
    formula = parse_hyperltl(_read(args.file))
    value = evaluate_hyperltl(trace_set, formula, args.max_period)
    _emit(args, "TRUE" if value else "FALSE")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersat",
        description="Satisfiability, implication, and model checking "
        "for temporal formulas quantified over traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver_flags=True):
        p.add_argument("--json", action="store_true", help="JSON output")
        if solver_flags:
            p.add_argument(
                "--no-verify",
                action="store_true",
                help="skip re-checking models against the input formula",
            )
            p.add_argument(
                "--max-unroll",
                type=int,
                default=DEFAULT_UNROLL_LIMIT,
                metavar="N",
                help="conjunct limit for exists-forall unrolling",
            )
            p.add_argument(
                "--max-period",
                type=int,
                default=DEFAULT_PERIOD_GUARD,
                metavar="N",
                help="loop-length guard for model evaluation",
            )

    p_sat = sub.add_parser("sat", help="decide satisfiability")
    p_sat.add_argument("file", help="formula file, '-' for stdin")
    p_sat.add_argument(
        "--model", action="store_true", help="print a satisfying trace set"
    )
    add_common(p_sat)
    p_sat.set_defaults(handler=cmd_sat)

    p_imp = sub.add_parser("implies", help="check an implication")
    p_imp.add_argument("antecedent", help="formula file, '-' for stdin")
    p_imp.add_argument("consequent", help="formula file, '-' for stdin")
    p_imp.add_argument(
        "--model", action="store_true", help="print a countermodel on FAILS"
    )
    add_common(p_imp)
    p_imp.set_defaults(handler=cmd_implies)

    p_cls = sub.add_parser("classify", help="name the quantifier fragment")
    p_cls.add_argument("file", help="formula file, '-' for stdin")
    add_common(p_cls, solver_flags=False)
    p_cls.set_defaults(handler=cmd_classify)

    p_enc = sub.add_parser(
        "encode-pcp", help="encode a correspondence instance as a formula"
    )
    p_enc.add_argument("instance", help="instance JSON file, '-' for stdin")
    p_enc.add_argument(
        "--solution",
        metavar="FILE",
        help="solution JSON; prints the witness trace set instead",
    )
    add_common(p_enc, solver_flags=False)
    p_enc.set_defaults(handler=cmd_encode_pcp)

    p_eval = sub.add_parser(
        "eval", help="evaluate a formula over a trace set"
    )
    p_eval.add_argument("model_file", help="trace set file, '-' for stdin")
    p_eval.add_argument("file", help="formula file, '-' for stdin")
    p_eval.add_argument(
        "--max-period",
        type=int,
        default=DEFAULT_PERIOD_GUARD,
        metavar="N",
        help="loop-length guard for evaluation",
    )
    add_common(p_eval, solver_flags=False)
    p_eval.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except errors.ResourceLimit as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except errors.InternalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (errors.HypersatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:  # a bug: one line, never a traceback
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
