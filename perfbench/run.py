"""The hypersat benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload large-automata --seed 1 --seconds 36 --trace 0

Measures set-up time by spawning the CLI, runs the workload in a fresh
child process (perfbench/workload.py), and prints one line per metric
followed by the result as one JSON object on the last line.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a separately traced run.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path.cwd()
NEEDED = ("BENCHMARK.json", "src/hypersat/__init__.py", "tests/oracles.py",
          "tests/generators.py", "perfbench/workload.py", "perfbench/keys.json")
CLASSIFY_INPUT = "exists p. forall q. G (a_p -> X a_q)\n"
CLASSIFY_OUTPUT = "exists-forall\n"
SETUP_SPAWNS = 5  # cold starts before, and again after, the workload
CHILD_TIMEOUT = 150


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_classify(extra: tuple = ()) -> tuple[float, float, subprocess.CompletedProcess]:
    """One cold start of `python -m hypersat classify -` on a one-line
    formula: its wall time, the scale to reference speed, the process."""
    before = speed.reference_seconds()
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, *extra, "-m", "hypersat", "classify", "-"],
        input=CLASSIFY_INPUT, capture_output=True, text=True, env=cli_env(),
        cwd=ROOT, timeout=30,
    )
    seconds = perf_counter() - t0
    return seconds, speed.factor(before, speed.reference_seconds()), done


def setup_seconds(problems: list, wall: list) -> float:
    """One cold start, at reference speed; its wall time goes to `wall`."""
    seconds, scale, done = spawn_classify()
    if done.returncode != 0 or done.stdout != CLASSIFY_OUTPUT:
        problems.append(f"classify printed {done.stdout!r}, exit {done.returncode}")
    wall.append(seconds)
    return seconds * scale


def import_seconds(problems: list, wall: list) -> float:
    """Cumulative import time of the top-level hypersat modules in one cold
    start, from -X importtime (microseconds on stderr; nested imports are
    indented and already inside their importer's cumulative time)."""
    _, scale, done = spawn_classify(("-X", "importtime"))
    total = 0
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].startswith(" hypersat"):
            total += int(fields[1])
    if total == 0:
        problems.append("no hypersat import found in -X importtime output")
    wall.append(total / 1e6)
    return total / 1e6 * scale


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypersat").glob("*.py")):
        digest.update(path.read_bytes())
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
        revision = done.stdout.strip() or revision
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypersat benchmark")
    parser.add_argument("--workload", required=True, help="checked by workload.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    info = stamp()
    problems: list[str] = []
    spawn_classify()  # writes the bytecode caches, as an installed package has them
    # cold starts, half before and half after the workload
    name, measure = ("cli.import_s", import_seconds) if args.trace else ("setup_s", setup_seconds)
    starts_wall: list[float] = []
    starts = [measure(problems, starts_wall) for _ in range(SETUP_SPAWNS)]
    try:
        child = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {CHILD_TIMEOUT} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.splitlines()[-1])
    starts += [measure(problems, starts_wall) for _ in range(SETUP_SPAWNS)]
    info["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    metrics = {**result["metrics"], name: statistics.median(starts)}

    unit = units()
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {args.workload} seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"# stamp {json.dumps(info, sort_keys=True)}")
    print(f"# {attempted} answers in {result['passes']} passes; percentiles over "
          f"{result['queries']} per-query medians; "
          f"failed_share {failed / attempted:.4f} ({failed}/{attempted})")
    for message in result["known_defect"]:
        print(f"# known defect: {message}")
    for message in result["unexpected"] + problems:
        print(f"# FAILURE: {message}")
    for note in result["notes"]:
        print(f"# note: {note}")
    wall = {**result["wall"], name: statistics.median(starts_wall)}
    print(f"# reference loop {result['reference_s'] * 1e3:.3f} ms (nominal "
          f"{speed.NOMINAL_S * 1e3:g} ms); wall time: "
          + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": not result["unexpected"] and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
