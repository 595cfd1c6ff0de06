"""Tests of the benchmark's own code, on tiny inputs."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cowsec.cli
import cowsec.core
from bench import check, probes, run, trace, worker, workloads

ROOT = Path(__file__).resolve().parents[1]


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_span_tree():
    # op 0: cli.main [0, 10] > sweeps.sweep [1, 7] > core.h [2, 3], core.h [4, 6]
    #                        > sweeps.write [8, 9]
    # op 1: cli.main [20, 21]
    tracer = trace.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 20, 21]))
    main = tracer.enter("cli.main", True)
    sweep = tracer.enter("sweeps.sweep", True)
    for _ in range(2):
        tracer.exit("core.h", tracer.enter("core.h", False))
    tracer.exit("sweeps.sweep", sweep)
    tracer.exit("sweeps.write", tracer.enter("sweeps.write", True))
    tracer.exit("cli.main", main)
    tracer.exit("cli.main", tracer.enter("cli.main", True))

    assert tracer.stats == {
        "core.h": [2, 3.0, 3.0],
        "sweeps.sweep": [1, 6.0, 3.0],
        "sweeps.write": [1, 1.0, 1.0],
        "cli.main": [2, 11.0, 4.0],
    }
    assert tracer.spans == [
        ["cli.main", 0, 10, -1, 0],
        ["sweeps.sweep", 1, 7, 0, 0],
        ["sweeps.write", 8, 9, 0, 0],
        ["cli.main", 20, 21, -1, 1],
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_calls_every_expected_function(name, tmp_path):
    wl = workloads.make(name, 7, tmp_path, tiny=True)
    original = cowsec.core.binary_entropy
    result = worker.run(wl, seconds=0, trace=True, run_dir=tmp_path)
    assert cowsec.core.binary_entropy is original  # bindings restored
    assert run.missing_calls(name, result) == []
    verdict = run.evaluate(wl, result)
    assert verdict["failed"] == 0, verdict["notes"]
    metrics = run.per_layer(result, verdict)
    assert set(metrics) == set(run.PER_LAYER)
    if name == "validate_mc":
        assert metrics["montecarlo.useful_pulse_ratio"] == 0.5


def test_every_timed_function_must_run_somewhere():
    required = {f for names in run.MUST_CALL.values() for f in names}
    assert set(trace.TIMED) <= required
    public = {name for name, _ in trace.public_functions()}
    assert required <= public


def _tiny_sweep(tmp_path) -> str:
    out = tmp_path / "sweep.csv"
    with redirect_stdout(io.StringIO()):
        assert cowsec.cli.main(["qber-curves", "--mu", "0.05,0.5", "--length", "0:150:25",
                                "--out", str(out)]) == 0
    return out.read_text()


def test_checker_flags_a_one_ulp_move(tmp_path):
    text = _tiny_sweep(tmp_path)
    _, rows = check.parse_csv(text)
    cell = rows[3]["qber_bs"]
    moved_value = math.nextafter(float(cell), 1.0)
    moved = text.replace(f",{cell},", f",{moved_value:.17g},", 1)
    assert moved != text
    assert check.sha256(moved.encode()) != check.sha256(text.encode())
    assert check.max_ulp("csv", moved, text) == 1
    assert check.max_ulp("csv", text, text) == 0


def test_ulp_distance():
    assert check.ulp_distance(0.0, -0.0) == 0
    assert check.ulp_distance(-5e-324, 5e-324) == 2
    assert check.ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert check.ulp_distance(math.nan, math.nan) == 0
    assert check.ulp_distance(math.nan, 1.0) == check.INCOMPARABLE_ULP
    doc = {"a": [1.0, {"b": 0.5}], "ok": True}
    moved = {"a": [1.0, {"b": math.nextafter(0.5, 0.0)}], "ok": True}
    assert check.max_ulp("json", json.dumps(moved), json.dumps(doc)) == 1


def test_checker_flags_broken_sweep_invariants(tmp_path):
    text = _tiny_sweep(tmp_path)
    op = workloads.Op((), None, 14, (0.05, 0.5), tuple(25.0 * k for k in range(7)))
    wl = workloads.Workload("sweep_grid", 0, (op,))
    assert check.check_output(wl, [text]) == [[]]
    secure_row = next(r for r in check.parse_csv(text)[1] if r["fully_insecure"] == "false")
    broken = text.replace(f"{secure_row['margin']},", "0,", 1)
    assert any("margin == 0" in p for p in check.check_output(wl, [broken])[0])


def test_checker_follows_monotonicity_across_chunks(tmp_path):
    text = _tiny_sweep(tmp_path)
    lines = text.splitlines(keepends=True)
    preamble = [line for line in lines if line.startswith("#")]
    columns, body = lines[len(preamble)], lines[len(preamble) + 1:]
    lengths = tuple(25.0 * k for k in range(7))
    parts = (lengths[:4], lengths[4:])
    texts = ["".join(preamble + [columns] + [r for r in body if float(r.split(",")[1]) in part])
             for part in parts]
    ops = tuple(workloads.Op((), None, 2 * len(part), (0.05, 0.5), part) for part in parts)
    wl = workloads.Workload("sweep_grid", 0, ops)
    assert check.check_output(wl, texts) == [[], []]
    # Raise the second chunk's first qber_bs above the first chunk's last one.
    first_row = texts[1].splitlines()[len(preamble) + 1]
    cells = first_row.split(",")
    texts[1] = texts[1].replace(first_row, ",".join(cells[:2] + ["0.49"] + cells[3:]))
    problems = check.check_output(wl, texts)
    assert problems[0] == [] and any("qber_bs increases" in p for p in problems[1])


def test_sweep_chunks_cover_the_whole_grid(tmp_path):
    wl = workloads.make("sweep_grid", 3, tmp_path)
    lengths = [length for op in wl.ops for length in op.lengths]
    assert len(lengths) == 3001 and wl.items == 5 * 3001
    assert all(b > a for a, b in zip(lengths, lengths[1:]))
    assert lengths[0] == 0.0 and lengths[-1] == pytest.approx(150.0)


def test_scaler_scales_each_block_by_the_probes_around_it():
    readings = iter([2.0, 4.0, 1.0])  # before block 1, between blocks, after block 2
    scale = probes.Scaler(lambda: next(readings), reference=1.0, block_s=0.5)
    for seconds in (0.2, 0.3, 0.6):
        scale.add(seconds)
    scale.flush()
    # block 1 (0.2 + 0.3 s) by 2 / (2 + 4), block 2 (0.6 s) by 2 / (4 + 1)
    assert scale.scaled == pytest.approx([0.2 / 3, 0.1, 0.24])


def test_checker_flags_an_all_low_power_report(tmp_path):
    out = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        code = cowsec.cli.main(["validate-mc", "--pulses", "100", "--length", "200", "--mu", "0.1",
                                "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["passed"] is True
    assert {c["status"] for c in report["checks"]} == {"low_power"}
    op = workloads.Op((), str(out), 100)
    assert any("no check has power" in p for p in check.check_validation(out.read_text(), op))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    first = workloads.make(name, 11, tmp_path)
    assert workloads.make(name, 11, tmp_path) == first
    assert workloads.make(name, 12, tmp_path).ops != first.ops


def test_reference_files_match_their_digests():
    for name in workloads.WORKLOADS:
        reference = check.reference_texts(name)
        if reference is not None:
            assert check.sha256("".join(reference).encode()) == check.reference_digest(name)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
