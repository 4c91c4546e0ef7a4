"""The machine's current speed, from a fixed stdlib-only reference loop.

On small shared machines the speed of one CPU changes by up to 2x over
seconds to minutes, as other tenants load the host.  The benchmark times
this loop next to every stretch of measured work and reports times at
reference speed: wall time x NOMINAL_S / (the loop's time measured next
to it).  The loop never changes with the program, so a faster or slower
program still shows in full; only the machine's drift is divided out.
The raw wall times are printed beside the normalised ones.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.005  # the loop's time at reference speed, by definition


def _loop() -> None:
    counts: dict = {}
    for i in range(5000):
        key = frozenset((i % 97, i % 13, i % 7))
        counts[key] = counts.get(key, 0) + 1
    sorted(((i * 7919) % 10007, i % 101) for i in range(5000))


def reference_seconds() -> float:
    """Best of three wall times of a fixed mix of the work the program does
    most: hashing and building small frozensets and tuples, dict updates
    and a tuple sort."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale for wall time measured between two reference timings."""
    return NOMINAL_S / ((before + after) / 2)
