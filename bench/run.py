"""cowsec benchmark: one workload per invocation, timed end to end or traced.

    python3 -m bench.run --workload sweep_grid --seed 0 --seconds 15 --trace 0

Run from the repository root. The workload runs in a fresh single-threaded
Python process (``bench.worker``) that calls ``cowsec.cli.main`` in-process,
after one warm-up iteration. ``setup_s`` is the import time of
``cowsec.cli`` in fresh interpreters, measured separately. Times are scaled
to a reference CPU speed measured by speed probes next to each block of
calls (``bench.probes``); the unscaled times are printed too. Every output
is checked (``bench.check``); a failed check, an exception or an unexpected
exit code fails the operation.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a run that alternates
untraced and traced iterations. The last line of stdout is the result as
JSON: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every operation passed, 1 when one failed, and 2 when the benchmark
could not run at all, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from bench import check, probes, trace, workloads

SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{name}.{part}": unit for name in trace.TIMED
       for part, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "sweeps.write_sweep.bytes": "B",
    "sweeps.fully_insecure_rows": "count",
    "sweeps.output_max_ulp": "ulp",
    "attacks.margin_evals_per_length": "ratio",
    "core.entropy_evals_per_inverse": "ratio",
    "montecarlo.simulate_active_attack.pulses": "count",
    "montecarlo.simulate_no_attack.pulses": "count",
    "montecarlo.pulses_per_s": "1/s",
    "montecarlo.useful_pulse_ratio": "ratio",
    "trace.overhead_s": "s",
}

# A traced run fails when one of these records no call on its workload.
MUST_CALL = {
    "sweep_grid": (
        "cli.main", "sweeps.sweep_qber_curves", "sweeps.write_sweep",
        "attacks.bs_attack", "attacks.active_attack", "attacks.active_plan",
        "core.binary_entropy_inverse", "core.binary_entropy", "core.holevo_two_pure",
        "core.channel_point",
    ),
    "optimise_mu": (
        "cli.main", "sweeps.sweep_optimal_intensity", "sweeps.write_sweep",
        "attacks.optimal_source_intensity", "attacks.key_rate_margin",
        "attacks.active_plan", "attacks.bs_attack", "attacks.active_attack",
        "core.binary_entropy_inverse", "core.binary_entropy", "core.channel_point",
    ),
    "validate_mc": (
        "cli.main", "sweeps.run_montecarlo_validation", "montecarlo.simulate_active_attack",
        "montecarlo.simulate_no_attack", "montecarlo.decoy_distortion", "attacks.active_plan",
    ),
    "point_reports": (
        "cli.main", "attacks.bs_attack", "attacks.active_attack", "attacks.active_plan",
        "attacks.key_rate_margin", "core.binary_entropy_inverse", "core.binary_entropy",
        "core.holevo_two_pure", "core.channel_point",
    ),
}


def measure_setup(root: Path, env: Dict[str, str]) -> Dict[str, float]:
    """Median import time of cowsec.cli over fresh interpreters, raw and scaled.

    Each interpreter runs the python speed probe just before and after the
    import (``bench.probes``). The first import is discarded: it may compile
    bytecode, which users pay once.
    """
    code = (
        "import time; from bench.probes import measure; b = measure('python'); "
        "t = time.perf_counter(); import cowsec.cli; t = time.perf_counter() - t; "
        "print(b, t, measure('python'))"
    )
    raw, scaled = [], []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
            text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        before, elapsed, after = (float(v) for v in out.stdout.split())
        raw.append(elapsed)
        scaled.append(probes.scaled_import_s(before, elapsed, after))
    return {"setup_s": statistics.median(scaled[1:]), "raw_setup_s": statistics.median(raw[1:])}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def evaluate(wl: workloads.Workload, result: Dict[str, object]) -> Dict[str, object]:
    """Check every operation of the run; compare default-seed outputs with the reference."""
    problems_by_digest = {}
    notes: List[str] = []
    insecure_rows = max_ulp = 0
    for digest, path in result["outputs"].items():
        texts = json.loads(Path(path).read_text()) if Path(path).is_file() else None
        problems_by_digest[digest] = check.check_output(wl, texts)
        if texts is None:
            continue
        insecure_rows = check.fully_insecure_rows(wl, texts)
        if wl.seed == workloads.DEFAULT_SEED:
            match, ulp = check.compare_reference(wl, texts)
            max_ulp = max(max_ulp, ulp)
            notes.append(
                f"output sha256 {digest[:16]} matches the seed commit" if match else
                f"output sha256 {digest[:16]} differs from the seed commit (max {ulp} ulp)"
            )
    if wl.seed != workloads.DEFAULT_SEED:
        notes.append("no reference output at this seed; invariants checked only")

    attempted = failed = 0
    for record in [result["warmup"], *result["iterations"]]:
        per_op = problems_by_digest[record["digest"]]
        for op, code, problems in zip(wl.ops, record["codes"], per_op):
            attempted += 1
            if code != 0 or problems:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"operation failed: {' '.join(op.argv[:3])} exit {code!r} {problems[:3]}")
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "fully_insecure_rows": insecure_rows, "max_ulp": max_ulp}


def _wall(iterations: List[Dict[str, object]], key: str = "scaled_s") -> float:
    return statistics.median(sum(it[key]) for it in iterations)


def end_to_end(wl: workloads.Workload, result: Dict[str, object], setup_s: float) -> Dict[str, float]:
    # Times are scaled to the probe's reference speed (bench.probes). Latency
    # percentiles are taken over the calls of each iteration, then the median
    # over iterations, so one iteration slowed by the machine moves them little.
    iterations = result["iterations"]
    wall = _wall(iterations)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": wl.items / wall,
        "call_ms.p50": 1e3 * statistics.median(statistics.median(it["scaled_s"]) for it in iterations),
        "call_ms.p90": 1e3 * statistics.median(
            statistics.quantiles(it["scaled_s"], n=10)[-1] for it in iterations),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: Dict[str, object], verdict: Dict[str, object]) -> Dict[str, float]:
    runs = [it for it in result["iterations"] if it["traced"]]
    n = len(runs)
    stats, counts = result["trace"]["stats"], result["trace"]["counts"]

    def per_iteration(value: float) -> float:
        return value / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics: Dict[str, float] = {}
    for name in trace.TIMED:
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = per_iteration(calls)
        metrics[f"{name}.s"] = per_iteration(total)
        metrics[f"{name}.self_s"] = per_iteration(own)
    for counter in ("sweeps.write_sweep.bytes", "montecarlo.simulate_active_attack.pulses",
                    "montecarlo.simulate_no_attack.pulses"):
        metrics[counter] = per_iteration(counts.get(counter, 0))
    simulated = (metrics["montecarlo.simulate_active_attack.pulses"]
                 + metrics["montecarlo.simulate_no_attack.pulses"])
    simulate_s = metrics["montecarlo.simulate_active_attack.s"] + metrics["montecarlo.simulate_no_attack.s"]
    useful = 2 * per_iteration(counts.get("sweeps.run_montecarlo_validation.pulses", 0))
    untraced = [it for it in result["iterations"] if not it["traced"]]
    metrics.update({
        "sweeps.fully_insecure_rows": verdict["fully_insecure_rows"],
        "sweeps.output_max_ulp": verdict["max_ulp"],
        "attacks.margin_evals_per_length": ratio(
            metrics["attacks.key_rate_margin.calls"], metrics["attacks.optimal_source_intensity.calls"]),
        "core.entropy_evals_per_inverse": ratio(
            metrics["core.binary_entropy.calls"], metrics["core.binary_entropy_inverse.calls"]),
        "montecarlo.pulses_per_s": ratio(simulated, simulate_s),
        "montecarlo.useful_pulse_ratio": ratio(useful, simulated),
        "trace.overhead_s": _wall(runs) - _wall(untraced),
    })
    return metrics


def missing_calls(workload: str, result: Dict[str, object]) -> List[str]:
    stats = result["trace"]["stats"]
    return [name for name in MUST_CALL[workload] if not stats.get(name, (0,))[0]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cowsec" / "cli.py").is_file():
        print(f"error: no cowsec sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    run_dir = root / ".bench_run" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(src)}
    try:
        setup = measure_setup(root, env) if args.trace == 0 else None
        worker = subprocess.run(
            [sys.executable, "-m", "bench.worker", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--run-dir", str(run_dir)],
            cwd=root, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 2
    result = json.loads((run_dir / "worker.json").read_text())
    imported = Path(result["environment"]["cowsec"])
    if imported != src / "cowsec":
        print(f"error: imported cowsec from {imported}, not {src / 'cowsec'}", file=sys.stderr)
        return 2
    result["environment"]["cowsec"] = str(imported.relative_to(root))

    wl = workloads.make(args.workload, args.seed, run_dir)
    verdict = evaluate(wl, result)
    notes = verdict["notes"]
    if args.trace:
        metrics = per_layer(result, verdict)
        units = PER_LAYER
        missing = missing_calls(args.workload, result)
        if missing:
            notes.append(f"traced run recorded no call of {', '.join(missing)}")
    else:
        metrics = end_to_end(wl, result, setup["setup_s"])
        units = END_TO_END
        missing = []
    environment = {
        **result["environment"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(result["iterations"]),
    }
    correct = verdict["failed"] == 0 and not missing
    print("environment " + json.dumps(environment))
    for note in notes:
        print(note)
    print(f"error_frac {verdict['failed'] / verdict['attempted']:.6g} "
          f"({verdict['failed']} of {verdict['attempted']} operations failed)")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    if not args.trace:
        # Printed for reference, not bounded metrics.
        iterations = result["iterations"]
        print(f"{'wall_s unscaled':45s} {_wall(iterations, 's'):.6g} s")
        print(f"{'setup_s unscaled':45s} {setup['raw_setup_s']:.6g} s")
        if len(wl.ops) >= 1000:
            p99 = statistics.median(statistics.quantiles(it["scaled_s"], n=100)[-1] for it in iterations)
            print(f"{'call_ms.p99':45s} {1e3 * p99:.6g} ms")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
