"""Repeatability check: run the benchmark on seeds 1..10 for every workload
in BENCHMARK.json and print, per end-to-end metric, the median and the
distance between the first and third quartiles as a share of the median,
next to the bound.  Runs are interleaved across workloads, seed by seed,
so that slow drift of the machine touches every workload alike.  Each
run's line also gives its raw wall times (before scaling to reference
speed).

    python3 perfbench/spread.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    values: dict = {w: {} for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            done = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            wall = next(line for line in lines if line.startswith("# reference loop"))
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in result["metrics"].items())
                  + f"; {wall[2:]}", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    print("workload metric median spread bound")
    for metric in bench["end_to_end"]:
        for workload in workloads:
            xs = values[workload][metric["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            print(f"{workload} {metric['name']} {median:.5g} "
                  f"{(q3 - q1) / median:.4f} {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
