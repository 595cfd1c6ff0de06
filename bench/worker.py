"""One workload in its own process: a warm-up iteration, then timed ones.

Each iteration runs the workload's operations in order, calling
``cowsec.cli.main`` in-process once per command line, and times each call.
A speed probe runs between blocks of calls (``bench.probes``), and each
call's time is also kept scaled to the probe's reference speed. Timings,
return codes and the digest of each iteration's outputs go to
``worker.json`` in the run directory; each distinct set of outputs is kept
there once, as a JSON list with one text per operation, so that the parent
can check it. With tracing on, untraced and traced iterations alternate,
so the tracing overhead is measured under the same conditions as the
traced numbers.

Run by ``bench.run``; ``python3 -m bench.worker --help`` lists the options.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from typing import Dict, List

from bench import probes, workloads
from bench.trace import Tracer, traced, write_spans

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _iteration(cli, wl: workloads.Workload, tracer=None) -> Dict[str, object]:
    for op in wl.ops:
        if op.out is not None and os.path.exists(op.out):
            os.remove(op.out)  # a call that writes nothing must not pass on a stale file
    seconds: List[float] = []
    codes: List[object] = []
    stdout: List[str] = []
    clock = time.perf_counter
    scale = probes.scaler(wl.probe)
    with traced(tracer) if tracer is not None else nullcontext():
        for op in wl.ops:
            buf = io.StringIO()
            start = clock()
            try:
                with redirect_stdout(buf):
                    code = cli.main(list(op.argv))
            except Exception as exc:  # an operation failure, not a harness failure
                code = f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            scale.add(elapsed)
            seconds.append(elapsed)
            codes.append(code)
            stdout.append(buf.getvalue())
        scale.flush()
    return {"s": seconds, "scaled_s": scale.scaled, "codes": codes, "stdout": stdout,
            "traced": tracer is not None}


def _keep_output(record: Dict[str, object], wl: workloads.Workload, run_dir: Path,
                 kept: Dict[str, str]) -> None:
    """Digest the iteration's outputs and keep the first copy of each distinct set."""
    stdout = record.pop("stdout")
    texts = []
    for op, printed in zip(wl.ops, stdout):
        if op.out is None:
            texts.append(printed)
            continue
        try:
            texts.append(Path(op.out).read_text())
        except OSError:
            texts.append("")
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    record["digest"] = digest
    if digest not in kept:
        path = run_dir / f"output-{len(kept)}.json"
        path.write_text(json.dumps(texts))
        kept[digest] = str(path)


def run(wl: workloads.Workload, seconds: float, trace: bool, run_dir: Path) -> Dict[str, object]:
    """Run ``wl`` for at least ``seconds`` after one warm-up iteration."""
    import cowsec.cli as cli

    kept: Dict[str, str] = {}
    tracer = Tracer() if trace else None
    warmup = _iteration(cli, wl)
    _keep_output(warmup, wl, run_dir, kept)
    iterations = []
    began = time.perf_counter()
    while True:
        record = _iteration(cli, wl, tracer if trace and len(iterations) % 2 else None)
        _keep_output(record, wl, run_dir, kept)
        iterations.append(record)
        if time.perf_counter() - began >= seconds and (not trace or len(iterations) >= 2):
            break
    result: Dict[str, object] = {
        "warmup": warmup,
        "iterations": iterations,
        "outputs": kept,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans = run_dir / "spans.jsonl"
        write_spans(tracer, str(spans))
        result["trace"] = {"stats": tracer.stats, "counts": tracer.counts, "spans": str(spans)}
    return result


def environment() -> Dict[str, object]:
    import numpy

    import cowsec

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cowsec": os.path.dirname(os.path.abspath(cowsec.__file__)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)
    run_dir = Path(args.run_dir)
    wl = workloads.make(args.workload, args.seed, run_dir)
    result = run(wl, args.seconds, bool(args.trace), run_dir)
    result["environment"] = environment()
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
