"""Repeat benchmark runs and summarise each metric by its median and quartiles.

    python3 -m bench.collect --seeds 0-9 --out bench/results/spread.json
    python3 -m bench.collect --seeds 0 --repeat 10 --workloads sweep_grid

Each run is a separate ``python3 -m bench.run`` process, one after the
other. For every workload and metric the summary holds the values in run
order, their median, first and third quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

from bench import workloads


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def summarise(values: List[float]) -> Dict[str, object]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return {"environment": env, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.collect")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="0-9", help="list (0,3,5) or inclusive range (0-9)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--note", help="free text stored as the summary's note, e.g. the machine")
    args = parser.parse_args(argv)

    summary: Dict[str, object] = {"workloads": {}}
    if args.note:
        summary["note"] = args.note
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in _seeds(args.seeds) for _ in range(args.repeat)]
        summary.setdefault("environment", runs[0]["environment"])
        metrics: Dict[str, List[float]] = {}
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
        summary["workloads"][workload] = {
            "seeds": [run["environment"]["seed"] for run in runs],
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "all_correct": all(run["result"]["correct"] for run in runs),
            "metrics": {name: summarise(values) for name, values in metrics.items()},
        }
        for name, stats in summary["workloads"][workload]["metrics"].items():
            print(f"{workload:14s} {name:45s} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
