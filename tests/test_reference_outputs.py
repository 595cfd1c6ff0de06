"""Benchmark workloads at seed 0 reproduce their recorded outputs, byte for byte.

Each workload runs in process through cowsec.cli.main, as bench.worker runs
it, and its outputs (the file an operation writes, else its stdout, read as
text) are compared with what bench/reference holds. Three workloads moved
on purpose since the reference was recorded, so their current SHA-256 is
pinned here instead. optimise_mu moved when the source-intensity optimiser
became a stationarity root, and validate_mc when the simulator began
blocking information pulses at the plan's b and its report listed Bob's
lossy-line click probability p_lossy_click. All three moved, sweep_grid
for the first time, when Eve's information and the key-rate margin came to
be taken from two rates, her known-and-delivered rate K and Bob's click
rate C, instead of from 1 - b; that moved i_ae_active, margin and
qber_active by up to a few thousand ulp.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cowsec.cli as cli
from bench import check, workloads

PINNED_SHA256 = {
    "optimise_mu": "5d3ca726a1f34b7d4c7a4c69bbf48191461ca959ba86830680b4cb8cf28b8d47",
    "sweep_grid": "3e4c747cd59a9c2b40f5e9c13e73dd279834792f939800a2a00356a67f0bdaaf",
    "validate_mc": "d15194a8828efcdddf9caf64af79d32249dec11cf4055572fda9705950e1299e",
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


def test_point_reports_match_the_reference_digest(tmp_path):
    assert sha256(workload_texts("point_reports", tmp_path)) == check.reference_digest(
        "point_reports"
    )


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_moved_workloads_match_their_pinned_digest(name, tmp_path):
    assert sha256(workload_texts(name, tmp_path)) == PINNED_SHA256[name]
