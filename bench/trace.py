"""Tracing of cowsec's public functions from outside the program.

``traced`` replaces every module-level binding of each function in
``TIMED`` with a timing wrapper and restores them on exit. Only reported
functions are wrapped, so the time of an unreported helper (argument
parsing, attenuation, critical lengths) counts in its caller's self time.
Every binding matters: ``from .core import ...`` copies functions into
``attacks``, ``sweeps``, ``cli`` and the package, and ``montecarlo`` and
``sweeps`` each call the simulators through their own globals, so patching
only the defining module would miss most calls.

Calls, total time and self time are aggregated per function. Full spans
(name, start, end, parent span, operation id) are kept only for the
``cli``, ``sweeps`` and ``montecarlo`` layers: the scalar ``core`` and
``attacks`` functions run over a million times per sweep, too many to
hold as spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

LAYERS = ("core", "attacks", "montecarlo", "sweeps", "cli")

# Functions traced and reported with calls, total time (s) and self time (self_s).
TIMED = (
    "cli.main",
    "sweeps.sweep_qber_curves",
    "sweeps.sweep_optimal_intensity",
    "sweeps.write_sweep",
    "sweeps.run_montecarlo_validation",
    "attacks.bs_attack",
    "attacks.active_attack",
    "attacks.active_plan",
    "attacks.key_rate_margin",
    "attacks.optimal_source_intensity",
    "core.binary_entropy_inverse",
    "core.binary_entropy",
    "core.holevo_two_pure",
    "core.channel_point",
    "montecarlo.simulate_active_attack",
    "montecarlo.simulate_no_attack",
    "montecarlo.decoy_distortion",
)
SPAN_LAYERS = frozenset({"cli", "sweeps", "montecarlo"})

# Work counted at a call boundary: name -> (counter, value from the bound arguments).
COUNTERS: Dict[str, Tuple[str, Callable[[Dict[str, object]], float]]] = {
    "montecarlo.simulate_active_attack": ("pulses", lambda a: a["n_pulses"]),
    "montecarlo.simulate_no_attack": ("pulses", lambda a: a["n_pulses"]),
    "sweeps.run_montecarlo_validation": ("pulses", lambda a: a["n_pulses"]),
    "sweeps.write_sweep": ("bytes", lambda a: os.path.getsize(a["path"])),
}


class Tracer:
    """Call statistics and spans collected while ``traced`` is active.

    ``stats[name]`` is [calls, total seconds, self seconds]; self time is
    the call's duration minus the time spent in traced calls it made.
    ``spans`` holds [name, start, end, parent span index, operation id];
    a new operation starts with each outermost call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[list] = []
        self.operations = 0
        self._stack: List[list] = []

    def enter(self, name: str, keep_span: bool) -> list:
        stack = self._stack
        if not stack:
            self.operations += 1
        parent = stack[-1][2] if stack else -1
        span = parent
        start = self.clock()
        if keep_span:
            span = len(self.spans)
            self.spans.append([name, start, None, parent, self.operations - 1])
        frame = [start, 0.0, span, keep_span]
        stack.append(frame)
        return frame

    def exit(self, name: str, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if frame[3]:
            self.spans[frame[2]][2] = end

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


def public_functions() -> Iterator[Tuple[str, types.FunctionType]]:
    """(layer.name, function) for each function a layer lists in ``__all__``."""
    for layer in LAYERS:
        module = importlib.import_module(f"cowsec.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                yield f"{layer}.{attr}", obj


def _wrap(tracer: Tracer, name: str, fn: types.FunctionType) -> Callable:
    keep_span = name.split(".", 1)[0] in SPAN_LAYERS
    enter, leave = tracer.enter, tracer.exit
    counter = COUNTERS.get(name)
    if counter is None:
        def traced_call(*args, **kwargs):
            frame = enter(name, keep_span)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)
    else:
        key, measure = f"{name}.{counter[0]}", counter[1]
        signature = inspect.signature(fn)

        def traced_call(*args, **kwargs):
            frame = enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame)
            tracer.add(key, measure(signature.bind(*args, **kwargs).arguments))
            return result
    return traced_call


@contextmanager
def traced(tracer: Tracer, names: Tuple[str, ...] = TIMED) -> Iterator[Tracer]:
    """Route every binding of each public cowsec function in ``names`` through ``tracer``."""
    wrappers = {fn: _wrap(tracer, name, fn) for name, fn in public_functions() if name in names}
    modules = [m for n, m in list(sys.modules.items()) if n == "cowsec" or n.startswith("cowsec.")]
    patched = [
        (module, attr, value)
        for module in modules
        for attr, value in list(vars(module).items())
        if isinstance(value, types.FunctionType) and value in wrappers
    ]
    for module, attr, value in patched:
        setattr(module, attr, wrappers[value])
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def write_spans(tracer: Tracer, path: str) -> None:
    """Write the kept spans as JSON lines, times in seconds from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for index, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": index, "name": name, "start": start - t0, "end": end - t0,
                "parent": parent, "op": op,
            }) + "\n")
