"""Benchmark workloads at seed 0 reproduce their pinned outputs, byte for byte.

Each workload runs in process through cowsec.cli.main, as bench.worker runs
it, and the SHA-256 of its outputs (the file an operation writes, else its
stdout, read as text) is compared with the digest pinned here. bench/reference
holds the outputs recorded at the first commit and is not re-recorded;
every workload has moved on purpose since, so each is pinned here instead.
optimise_mu moved when the source-intensity optimiser became a stationarity
root, and validate_mc when the simulator began blocking information pulses
at the plan's b and its report listed Bob's lossy-line click probability
p_lossy_click. Both moved again, and sweep_grid for the first time, when
Eve's information and the key-rate margin came to be taken from two rates,
her known-and-delivered rate K and Bob's click rate C, instead of from
1 - b; that moved i_ae_active, margin and qber_active by up to a few
thousand ulp. sweep_grid and optimise_mu moved once more, and point_reports
for the first time, when the closed-form commands stopped taking the decoy
fraction, on which none of their numbers depends: every table lost its
"# decoy_fraction=" header line and every attack report the decoy_fraction
of its configuration line, and no computed value changed. validate_mc moved
once more when the plan came to carry Bob's forwarded click probability and
Eve's blocking probability: the report's plan block gained those two keys,
and no other byte changed.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cowsec.cli as cli
from bench import workloads

PINNED_SHA256 = {
    "optimise_mu": "82228e1c27ba07c86a8f0c75c4d46dc7b9b785af76cef3fde9348299ba404262",
    "point_reports": "7135bf44ea27a869d322515688ba24934cfd9425417aa8fc12acd7b467ffe954",
    "sweep_grid": "69705890b40dcfbac8591295f3f7151e9e9b5d1a712dae50eb25cab9184b85a8",
    "validate_mc": "7e2b3932809eb1eea64826bd91c67af9a7456111b5943ec98a41a4e6bed64533",
}


def workload_texts(name, out_dir):
    wl = workloads.make(name, workloads.DEFAULT_SEED, out_dir)
    texts = []
    for op in wl.ops:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(list(op.argv)) == 0, op.argv
        texts.append(Path(op.out).read_text() if op.out is not None else buf.getvalue())
    return texts


def sha256(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_moved_workloads_match_their_pinned_digest(name, tmp_path):
    assert sha256(workload_texts(name, tmp_path)) == PINNED_SHA256[name]
