"""Speed probes: fixed work whose duration shows how fast the CPU runs now.

On a shared machine other tenants slow the whole core, often by half and
for seconds at a time, so the same operation can take twice as long from
one minute to the next. The worker therefore runs a probe before and after
each block of about ``BLOCK_S`` of operations and multiplies the block's
times by ``reference / mean(probe before, probe after)``: a time is
reported in seconds of a core that runs the probe in ``reference``
seconds. The references are the probes' fastest times on the machine that
recorded the baseline, so scaled times read as that machine's times when
it is idle.

The probes use only the standard library and numpy, never ``cowsec``, so
a change to the program moves the operations' times and not the probes'.
``python`` suits the pure-Python workloads; ``numpy`` does array work like
the Monte Carlo simulator's and suits ``validate_mc``. This module imports
numpy only when the numpy probe first runs, so that the set-up measurement
can use the python probe before ``cowsec`` (and numpy) is imported.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Tuple

BLOCK_S = 0.02


def python_probe() -> float:
    total = 0.0
    n = 6000
    for k in range(1, n):
        p = k / n
        total -= p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
    return total


def numpy_probe() -> float:
    import numpy as np

    z = np.arange(1 << 17, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(31))
    return float(((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).sum())


# name -> (probe, its fastest time in seconds on the baseline machine)
PROBES: Dict[str, Tuple[Callable[[], float], float]] = {
    "python": (python_probe, 0.91e-3),
    "numpy": (numpy_probe, 1.32e-3),
}


def measure(name: str) -> float:
    """Seconds one run of the probe ``name`` takes now."""
    probe = PROBES[name][0]
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Scaler:
    """Scales operation times to the reference speed, one block at a time.

    Call ``add`` with each operation's duration and ``flush`` after the
    last; ``scaled`` then holds every duration times the block's factor.
    """

    def __init__(self, measure_now: Callable[[], float], reference: float,
                 block_s: float = BLOCK_S) -> None:
        self._measure = measure_now
        self.reference = reference
        self.block_s = block_s
        self.scaled: List[float] = []
        self._block: List[float] = []
        self._before = measure_now()

    def add(self, seconds: float) -> None:
        self._block.append(seconds)
        if sum(self._block) >= self.block_s:
            self.flush()

    def flush(self) -> None:
        if not self._block:
            return
        after = self._measure()
        factor = 2.0 * self.reference / (self._before + after)
        self.scaled.extend(s * factor for s in self._block)
        self._block = []
        self._before = after


def scaler(name: str) -> Scaler:
    return Scaler(lambda: measure(name), PROBES[name][1])


def scaled_import_s(before: float, elapsed: float, after: float) -> float:
    """An import time scaled by python probes run just before and after it."""
    return elapsed * 2.0 * PROBES["python"][1] / (before + after)
