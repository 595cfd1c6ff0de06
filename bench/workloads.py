"""Workload inputs, generated from the benchmark seed.

Each workload is a list of operations, ``cowsec`` command lines that one
iteration runs in order. Every operation is short (about 1 to 250 ms), so
that ``bench.worker`` can measure the CPU's current speed next to it (see
``bench.probes``). The seed picks the inputs; the program sees only the
resulting command lines. ``tiny=True`` keeps the shape of each workload but
shrinks its size so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

DEFAULT_SEED = 0

WORKLOADS = ("sweep_grid", "optimise_mu", "validate_mc", "point_reports")

MU_RANGE = (0.02, 1.0)
SWEEP_MUS = 5
SWEEP_LENGTH = (0.0, 150.0, 0.05)
SWEEP_CHUNK = 100  # lengths per qber-curves call
OPTIMISE_SPAN = 99
VALIDATE_CALLS = 16
VALIDATE_PULSES = 1 << 18  # per validate-mc call; 2^22 in all
REPORTS = 2000
# Up to 100 km about 73% of the points are secure and cost two entropy
# inversions, the rest one. Up to 150 km the split is near 50/50, which puts
# the median call latency on the edge between the two costs, where a 1%
# change in the mix moves it by about a third.
REPORT_MAX_LENGTH = 100.0


@dataclass(frozen=True)
class Op:
    """One command line and what its output must hold.

    ``out`` is the output file, or None when the output is stdout.
    ``items`` is the work the call completes: table rows, simulated
    ``--pulses`` or one report.
    """

    argv: Tuple[str, ...]
    out: Optional[str]
    items: int
    mus: Tuple[float, ...] = ()
    lengths: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    """The operations of one iteration; ``probe`` names the speed probe that suits them."""

    name: str
    seed: int
    ops: Tuple[Op, ...]
    probe: str = "python"

    @property
    def items(self) -> int:
        return sum(op.items for op in self.ops)

    @property
    def kind(self) -> str:
        """Format of the outputs: csv, json, or text (stdout)."""
        return {"validate_mc": "json", "point_reports": "text"}.get(self.name, "csv")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified_mus(rng: random.Random, n: int) -> List[float]:
    # One draw, log-uniform, in each of n equal log-width strata of the range,
    # so that every seed covers both the secure and the fully insecure
    # regimes and the cost of a sweep varies less between seeds.
    lo, hi = (math.log(v) for v in MU_RANGE)
    width = (hi - lo) / n
    return [math.exp(lo + width * (k + rng.random())) for k in range(n)]


def _grid(lo: float, hi: float, step: float) -> Tuple[float, ...]:
    # Same inclusive grid the program builds from min:max:step.
    n = int(math.floor((hi - lo) / step + 1e-9))
    return tuple(lo + k * step for k in range(n + 1))


def _sweep_grid(rng: random.Random, out_dir: Path, tiny: bool) -> Tuple[Op, ...]:
    mus = tuple(sorted(_stratified_mus(rng, SWEEP_MUS)))
    lo, hi, step = SWEEP_LENGTH
    chunk = SWEEP_CHUNK
    if tiny:
        step, chunk = 10.0, 6
    total = len(_grid(lo, hi, step))
    ops = []
    for first in range(0, total, chunk):
        start = lo + first * step
        stop = start + (min(chunk, total - first) - 1) * step
        lengths = _grid(start, stop, step)
        argv = (
            "qber-curves",
            "--mu", ",".join(repr(m) for m in mus),
            "--length", f"{start!r}:{stop!r}:{step!r}",
            "--workers", "1",
            "--out", str(out_dir / f"sweep_grid-{len(ops)}.csv"),
        )
        ops.append(Op(argv, argv[-1], len(mus) * len(lengths), mus, lengths))
    return tuple(ops)


def make(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Build the workload ``name`` for ``seed``, writing outputs under out_dir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep_grid":
        return Workload(name, seed, _sweep_grid(rng, out_dir, tiny))
    if name == "optimise_mu":
        start = rng.uniform(0.5, 1.5)
        ops = []
        for k, length in enumerate(_grid(start, start + (2 if tiny else OPTIMISE_SPAN), 1.0)):
            argv = (
                "optimal-intensity",
                "--length", f"{length!r}:{length!r}:1",
                "--workers", "1",
                "--out", str(out_dir / f"optimise_mu-{k}.csv"),
            )
            ops.append(Op(argv, argv[-1], 1, (), (length,)))
        return Workload(name, seed, tuple(ops))
    if name == "validate_mc":
        calls, pulses = (2, 1 << 12) if tiny else (VALIDATE_CALLS, VALIDATE_PULSES)
        ops = []
        for k in range(calls):
            argv = (
                "validate-mc",
                "--pulses", str(pulses),
                "--seed", str(rng.randrange(1 << 32)),
                "--out", str(out_dir / f"validate_mc-{k}.json"),
            )
            ops.append(Op(argv, argv[-1], pulses))
        return Workload(name, seed, tuple(ops), probe="numpy")
    if name == "point_reports":
        n = 5 if tiny else REPORTS
        mus = [_log_uniform(rng, *MU_RANGE) for _ in range(n)]
        lengths = [rng.uniform(0.0, REPORT_MAX_LENGTH) for _ in range(n)]
        ops = tuple(
            Op(("attack-report", "--mu", repr(mu), "--length", repr(length)), None, 1, (mu,), (length,))
            for mu, length in zip(mus, lengths)
        )
        return Workload(name, seed, ops)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
