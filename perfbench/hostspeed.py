"""How much slower than nominal the host runs, from two fixed reference loops.

The benchmark's host gives each process a share of a shared machine, and its
speed swings by up to ~2x in stretches of seconds to minutes, longer than a
run. A fixed loop that never changes with the program, timed beside the
workload, tells how slow the host is at the moment; dividing the workload's
times by that slowdown gives them at the host's nominal speed.

There are two loops, for the two kinds of work the program does: Fraction
arithmetic in the interpreter, and numpy passes over arrays larger than the
core's own caches. The slowdown is the geometric mean of the two loops'
fastest times over their nominal ones. NOMINAL_S are their fastest times on
the reference host (2 vCPUs at 2.0 GHz, Python 3.11, numpy 2.4) when nothing
else contends for it.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

REPEATS = 3  # timings per sample; a sample keeps the fastest


def _interpreter_loop() -> None:
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)


_arrays = None


def _memory_loop() -> None:
    # the arrays are made once and kept: made afresh for each sample, they
    # would add to the process's peak RSS in some runs and not in others
    global _arrays
    import numpy as np

    if _arrays is None:
        a = np.random.default_rng(0).random(512 * 1024)
        _arrays = (a, np.empty_like(a))
    a, b = _arrays
    for _ in range(8):
        np.multiply(a, a, out=b)
        b += 1.0
        np.sqrt(b, out=b)


LOOPS = (_interpreter_loop, _memory_loop)
NOMINAL_S = (0.0075, 0.0105)


class HostSpeed:
    """Fastest reference-loop times seen since creation, or since `reset()`."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.best = [math.inf] * len(LOOPS)

    def sample(self) -> None:
        """Time each loop REPEATS times, with the collector off so the program's heap does not count."""
        gc.disable()
        try:
            for i, loop in enumerate(LOOPS):
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    loop()
                    self.best[i] = min(self.best[i], time.perf_counter() - t0)
        finally:
            gc.enable()

    def slowdown(self) -> float:
        ratios = [b / n for b, n in zip(self.best, NOMINAL_S)]
        return math.prod(ratios) ** (1 / len(ratios))
