"""Cost ledger: exact operation counts of a small slice of each benchmark workload.

Each workload's tiny slice (``bench.workloads.make(..., tiny=True)`` at the
benchmark's default seed) runs in process through ``cli.main`` under
``bench.trace.traced``, with a list of traced functions of this file's own,
and the simulator's SplitMix64 words are counted at ``montecarlo._words``.
The counts are deterministic, so they are pinned exactly, the way output
digests are: a change that adds or saves work moves a count here, and
names each moved count, old -> new, where it records the change.
"""

import io
from contextlib import redirect_stdout

import pytest

import cowsec.cli as cli
from bench import workloads
from bench.trace import Tracer, traced
from cowsec import montecarlo

COUNTED = (
    "cli.main",
    "sweeps.sweep_qber_curves",
    "sweeps.sweep_optimal_intensity",
    "sweeps.length_grid",
    "sweeps.write_sweep",
    "sweeps.run_montecarlo_validation",
    "attacks.bs_attack",
    "attacks.active_attack",
    "attacks.active_plan",
    "attacks.key_rate_margin",
    "attacks.optimal_source_intensity",
    "attacks.fully_insecure_length",
    "core.channel_point",
    "core.transmittance",
    "core.binary_entropy_inverse",
    "core.binary_entropy",
    "core.holevo_two_pure",
    "montecarlo.simulate_active_attack",
    "montecarlo.simulate_no_attack",
    "montecarlo.decoy_distortion",
)

# Calls per traced function, the trace's own work counters (pulses
# simulated, bytes written) and the kernel's words, per tiny slice.
LEDGER = {
    "sweep_grid": {
        "ops": 3,
        "attacks.active_attack": 80,
        "attacks.active_plan": 80,
        "attacks.bs_attack": 80,
        "cli.main": 3,
        "core.binary_entropy": 1520,
        "core.binary_entropy_inverse": 119,
        "core.channel_point": 160,
        "core.holevo_two_pure": 80,
        "core.transmittance": 160,
        "sweeps.length_grid": 3,  # one grid per command
        "sweeps.sweep_qber_curves": 3,
        "sweeps.write_sweep": 3,
        "sweeps.write_sweep.bytes": 10622,
    },
    "optimise_mu": {
        "ops": 3,
        "attacks.active_attack": 3,
        "attacks.active_plan": 6,  # two per length: the optimiser's margin and the row's
        "attacks.bs_attack": 3,
        "attacks.key_rate_margin": 3,
        "attacks.optimal_source_intensity": 3,
        "cli.main": 3,
        "core.binary_entropy": 78,
        "core.binary_entropy_inverse": 6,
        "core.channel_point": 9,
        "core.holevo_two_pure": 3,
        "core.transmittance": 12,
        "sweeps.length_grid": 3,  # one grid per command
        "sweeps.sweep_optimal_intensity": 3,
        "sweeps.write_sweep": 3,
        "sweeps.write_sweep.bytes": 1138,
    },
    "validate_mc": {
        "ops": 2,
        "attacks.active_plan": 6,  # three per validation
        "cli.main": 2,
        "core.channel_point": 10,
        "core.transmittance": 10,
        "montecarlo._words.words": 147456,
        "montecarlo.decoy_distortion": 2,
        "montecarlo.simulate_active_attack": 4,  # each stream simulated twice per validation
        "montecarlo.simulate_active_attack.pulses": 16384,
        "montecarlo.simulate_no_attack": 4,
        "montecarlo.simulate_no_attack.pulses": 16384,
        "sweeps.run_montecarlo_validation": 2,
        "sweeps.run_montecarlo_validation.pulses": 8192,
    },
    "point_reports": {
        "ops": 5,
        "attacks.active_attack": 5,
        "attacks.active_plan": 10,  # two per report: active_attack's and key_rate_margin's
        "attacks.bs_attack": 5,
        "attacks.fully_insecure_length": 5,
        "attacks.key_rate_margin": 5,
        "cli.main": 5,
        "core.binary_entropy": 111,
        "core.binary_entropy_inverse": 8,
        "core.channel_point": 20,
        "core.holevo_two_pure": 5,
        "core.transmittance": 20,
    },
}


def ledger(name, tmp_path, monkeypatch):
    """The counts of one run of the workload's tiny slice; calls of untraced names are absent."""
    words = []
    count_words = montecarlo._words

    def counted(base, slot, out, tmp):
        words.append(out.size)
        return count_words(base, slot, out, tmp)

    monkeypatch.setattr(montecarlo, "_words", counted)
    workload = workloads.make(name, workloads.DEFAULT_SEED, tmp_path, tiny=True)
    tracer = Tracer()
    with traced(tracer, COUNTED), redirect_stdout(io.StringIO()):
        for op in workload.ops:
            assert cli.main(list(op.argv)) == 0, op.argv
    counts = {function: int(stat[0]) for function, stat in tracer.stats.items()}
    counts.update((counter, int(value)) for counter, value in tracer.counts.items())
    if words:
        counts["montecarlo._words.words"] = sum(words)
    return {"ops": len(workload.ops), **dict(sorted(counts.items()))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_operation_counts_match_the_ledger(name, tmp_path, monkeypatch):
    assert ledger(name, tmp_path, monkeypatch) == LEDGER[name]
