"""Benchmark workloads at seed 0 reproduce their recorded outputs, byte for byte.

Each workload runs in process through cowsec.cli.main, as bench.worker runs
it, and its outputs (the file an operation writes, else its stdout, read as
text) are compared with what bench/reference holds. optimise_mu and
validate_mc moved on purpose since the reference was recorded (the
source-intensity optimiser became a stationarity root, the simulator
blocks information pulses at the plan's b, and the report's plan block
lists Bob's lossy-line click probability p_lossy_click where it listed
Eve's total conclusive rate), so their current SHA-256 is pinned here
instead.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cowsec.cli as cli
from bench import check, workloads

PINNED_SHA256 = {
    "optimise_mu": "1ef6b85df95d8877edc3a63b4f8659692f71e024a52a68ba2cd13141a1ac73ab",
    "validate_mc": "7bd522f421e486f4bd752b22085d046a3b0729280fd44e2cadfc4a01357dbe5f",
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


def test_sweep_grid_matches_the_reference_per_operation(tmp_path):
    texts = workload_texts("sweep_grid", tmp_path)
    reference = check.reference_texts("sweep_grid")
    assert len(texts) == len(reference)
    for i, (text, expected) in enumerate(zip(texts, reference)):
        assert text == expected, f"operation {i} differs from the reference"
    assert sha256(texts) == check.reference_digest("sweep_grid")


def test_point_reports_match_the_reference_digest(tmp_path):
    assert sha256(workload_texts("point_reports", tmp_path)) == check.reference_digest(
        "point_reports"
    )


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_moved_workloads_match_their_pinned_digest(name, tmp_path):
    assert sha256(workload_texts(name, tmp_path)) == PINNED_SHA256[name]
