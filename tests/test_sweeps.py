"""Sweep tables, serialisation round-trips, validation harness and CLI."""

import ast
import csv
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cowsec.cli as cli
from cowsec import __version__
from cowsec.core import ProtocolParams
from cowsec.attacks import (
    ActiveAttackPlan,
    active_attack,
    active_plan,
    bs_attack,
    fully_insecure_length,
    key_rate_margin,
    optimal_source_intensity,
)
from cowsec.sweeps import (
    CheckResult,
    SweepRow,
    _json_text,
    _make_check,
    length_grid,
    run_montecarlo_validation,
    sweep_optimal_intensity,
    sweep_qber_curves,
    write_sweep,
)


def rows_equal(a: SweepRow, b: SweepRow) -> bool:
    for field in SweepRow._fields:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
            if x != y:
                return False
        elif x != y:
            return False
    return True


def read_csv_table(path):
    """Header and rows of a CSV sweep table, the rows parsed by csv.DictReader."""
    header, lines = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            else:
                lines.append(line)
    rows = [
        SweepRow(**{k: v == "true" if k == "fully_insecure" else float(v) for k, v in r.items()})
        for r in csv.DictReader(lines)
    ]
    return header, rows


def read_json_table(path):
    """Metadata and rows of a JSON sweep table; null reads back as NaN."""
    payload = json.loads(Path(path).read_text())
    rows = [
        SweepRow(**{k: math.nan if v is None else v for k, v in r.items()})
        for r in payload["rows"]
    ]
    return payload["metadata"], rows


# ---------------------------------------------------------------------------
# sweep validation and grids


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu_list": ()},
        {"mu_list": (0.1, -0.2)},
        {"mu_list": (0.1,), "delta": 0.0},
        {"mu_list": (math.nan,)},
        {"mu_list": (math.inf,)},
        {"mu_list": (0.1,), "delta": math.inf},
        {"mu_list": (0.1, 0.2, 0.1)},
        {"mu_list": (1, 1.0)},
    ],
    # fixed ids, so that each case keeps its name when another is removed;
    # length grids are checked by length_grid and formats by write_sweep
    ids=[f"kwargs{k}" for k in (0, 1, 2, 9, 10, 11, 12, 13)],
)
def test_sweep_spec_validation(kwargs, monkeypatch):
    # the intensities and delta are checked before a row is computed
    def no_row(*args):
        pytest.fail("a row was computed before the settings were checked")

    monkeypatch.setattr("cowsec.sweeps._qber_row", no_row)
    with pytest.raises(ValueError):
        sweep_qber_curves(lengths=[0.0, 1.0], **kwargs)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mu", "0.1,0.1"], "source intensity 0.1 is repeated"),
        (["--mu", "0.5,0.1,0.50"], "source intensity 0.5 is repeated"),
    ],
)
def test_a_repeated_intensity_is_rejected(argv, message, tmp_path, capsys):
    # one row per (mu, length): a repeated mu would write each of its rows twice
    out = tmp_path / "x.csv"
    assert cli.main(["qber-curves", *argv, "--length", "0:1:1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_record_is_immutable():
    from cowsec.core import channel_point
    from cowsec.montecarlo import ClassTally, TrialStats

    params = ProtocolParams(0.2)
    active = active_attack(params, 20.0)
    report = run_montecarlo_validation(params, 20.0, 0.1, 1000, 1)
    records = [
        params, channel_point(params, 20.0), active.plan, active,
        optimal_source_intensity(0.2, 20.0), SweepRow(0.2, 20.0, *[0.1] * 5, False, 0.0),
        report.checks[0], report, report.distortion, report.distortion.rows[0], ClassTally(),
        TrialStats(),
    ]
    assert len({type(record) for record in records}) == 12
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance __dict__, also on the validated subclasses


@pytest.mark.parametrize("command, n_rows", [("qber-curves", 9), ("optimal-intensity", 3)])
def test_json_rows_keep_the_column_order(command, n_rows, tmp_path):
    path = tmp_path / "table.json"
    assert cli.main([command, "--length", "1:11:5", "--format", "json", "--out", str(path)]) == 0
    rows = json.loads(path.read_text())["rows"]
    assert len(rows) == n_rows
    assert all(list(row) == list(SweepRow._fields) for row in rows)


def test_length_grid_is_inclusive():
    assert len(length_grid(0.0, 150.0, 1.0)) == 151
    assert len(length_grid(1.0, 100.0, 1.0)) == 100
    assert length_grid(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(set(length_grid(0.0, 150.0, 0.05))) == 3001  # the benchmark's grid


@pytest.mark.parametrize(
    "bounds, fragment",
    [
        ((0.0, math.inf, 1.0), "finite"),
        ((math.nan, 10.0, 1.0), "finite"),
        ((0.0, 1.0, math.inf), "finite"),
        ((0.0, 10.0, 0.0), "positive step"),
        ((0.0, 10.0, -1.0), "positive step"),
        ((0.0, 1e6, 1.0), "cap"),
        ((0.0, 1e12, 1e-6), "cap"),
        ((0.0, 1.0, 5e-324), "cap"),
        ((10.0, 5.0, 1.0), "10.0:5.0:1.0 ends below its start"),
        ((-3.0, 0.0, 1.0), "-3.0:0.0:1.0 starts below 0 km"),
    ],
)
def test_length_grid_rejects_bad_and_huge_ranges(bounds, fragment):
    with pytest.raises(ValueError, match=fragment):
        length_grid(*bounds)


@pytest.mark.parametrize(
    "bounds, distinct",
    [((1e12, 1e12 + 0.001, 1e-5), 9), ((1e16, 1e16 + 4, 1), 3)],
)
def test_length_grid_rejects_a_grid_that_repeats_a_length(bounds, distinct):
    # the step is finer than the float spacing at these lengths, so k * step
    # rounds some consecutive points onto one length, and each (mu, L) row
    # would be written several times
    points = [bounds[0] + k * bounds[2] for k in range(int((bounds[1] - bounds[0]) / bounds[2]) + 1)]
    assert len(set(points)) == distinct < len(points)
    grid = re.escape("length range " + ":".join(map(str, bounds)))
    with pytest.raises(ValueError, match=f"^{grid} repeats a length"):
        length_grid(*bounds)


def test_length_grid_allows_the_cap():
    assert len(length_grid(0.0, 999_999.0, 1.0)) == 1_000_000


def test_library_sweeps_reject_infinite_lengths():
    # a grid from length_grid is finite; a hand-made one is checked where its row attenuates
    with pytest.raises(ValueError, match="finite"):
        sweep_optimal_intensity(0.2, [math.inf])
    with pytest.raises(ValueError, match="finite"):
        sweep_qber_curves((0.1,), [math.inf])


@pytest.mark.parametrize("command", ["qber-curves", "optimal-intensity"])
def test_cli_rejects_huge_grid_without_allocating(command, tmp_path, capsys):
    # about 1e18 rows: the guard must refuse before building anything
    tracemalloc.start()
    try:
        code = cli.main([command, "--length", "0:1e12:1e-6", "--out", str(tmp_path / "x.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "1000000 points" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# qber curves


def test_qber_sweep_shape_and_endpoints():
    rows = sweep_qber_curves((0.1, 0.2, 0.5), length_grid(0.0, 150.0, 1.0))
    assert len(rows) == 3 * 151
    assert [r.mu for r in rows] == sorted(r.mu for r in rows)
    zero_length = [r for r in rows if r.length_km == 0.0]
    assert all(r.qber_bs == 0.5 and r.qber_active == 0.5 for r in zero_length)
    # the active curve for mu=0.5 hits zero just before 50 km and stays there
    tail = [r for r in rows if r.mu == 0.5 and r.length_km >= 50.0]
    assert all(r.qber_active == 0.0 and r.fully_insecure for r in tail)
    head = [r for r in rows if r.mu == 0.5 and r.length_km <= 49.0]
    assert all(r.qber_active > 0.0 for r in head)


def test_qber_sweep_sorts_rows_by_mu_then_length():
    lengths = length_grid(0.0, 60.0, 7.5)
    rows = sweep_qber_curves((0.5, 0.1, 0.02), lengths)
    expected = []
    for mu in (0.02, 0.1, 0.5):
        params = ProtocolParams(mu=mu, delta=0.2)
        for length in lengths:
            active = active_attack(params, length)
            row = SweepRow(
                mu=mu,
                length_km=length,
                qber_bs=bs_attack(params, length).qber_critical,
                qber_active=active.qber_critical,
                i_ae_active=active.i_ae,
                mu_e_opt=active.plan.mu_e,
                block_fraction=active.plan.block_fraction,
                fully_insecure=active.fully_insecure,
                margin=key_rate_margin(params, length),
            )
            expected.append(row)
    assert len(rows) == len(expected) == 3 * len(lengths)
    assert all(rows_equal(a, b) for a, b in zip(rows, expected))


# ---------------------------------------------------------------------------
# serialisation round-trips


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_preserves_rows_exactly(tmp_path, fmt):
    path = tmp_path / f"table.{fmt}"
    argv = ["qber-curves", "--mu", "0.1,0.5", "--length", "0:60:5", "--format", fmt, "--out", str(path)]
    assert cli.main(argv) == 0
    rows = sweep_qber_curves((0.1, 0.5), length_grid(0.0, 60.0, 5.0))
    header, back = (read_csv_table if fmt == "csv" else read_json_table)(str(path))
    assert len(back) == len(rows)
    assert all(rows_equal(a, b) for a, b in zip(rows, back))
    # resolved configuration is embedded
    assert header["tool"] == "cowsec"
    assert header["command"] == "qber-curves"
    assert "attacks" not in header
    assert header["delta"] == f"{0.2:.17g}"


def test_table_header_lists_the_command_and_its_resolved_settings(tmp_path):
    # each setting in its %.17g spelling, whatever spelling the command line used
    tool = [("tool", "cowsec"), ("version", __version__)]
    path = tmp_path / "curves.csv"
    argv = ["qber-curves", "--mu", "5e-1,.1", "--delta", ".3", "--length", "0:1.5e2:75"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    header, _ = read_csv_table(str(path))
    assert list(header.items()) == tool + [
        ("command", "qber-curves"),
        ("mu", "0.5,0.10000000000000001"),
        ("delta", "0.29999999999999999"),
        ("length", "0:150:75"),
        ("format", "csv"),
    ]
    path = tmp_path / "optimal.json"
    argv = ["optimal-intensity", "--delta", "3e-1", "--length", "1:3:1", "--format", "json"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert list(json.loads(path.read_text())["metadata"].items()) == tool + [
        ("command", "optimal-intensity"),
        ("delta", "0.29999999999999999"),
        ("length", "1:3:1"),
        ("format", "json"),
    ]


def test_seventeen_digit_rendering_round_trips_awkward_floats(tmp_path):
    awkward = SweepRow(1.0 / 3.0, math.pi, 0.1 + 0.2, math.nan, 5e-324, 2.0**53, -0.0, False, math.inf)
    path = tmp_path / "awkward.csv"
    write_sweep(str(path), [awkward], {"command": "test"}, "csv")
    _, back = read_csv_table(str(path))
    assert rows_equal(back[0], awkward)


COLUMNS = SweepRow._fields


def oracle_csv(rows, config):
    """CSV bytes as csv.writer writes them, one cell formatted at a time, under the header."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    buf = io.StringIO(newline="")
    for key, value in {"tool": "cowsec", "version": __version__, **config, "format": "csv"}.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf)
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([cell(getattr(row, c)) for c in COLUMNS])
    return buf.getvalue().encode()


_table_numbers = itertools.count()


def assert_written_as_oracle(directory, rows):
    # A fresh file each time: on ext4, truncating a file and writing it again
    # flushes it to disk on close, which takes tens of milliseconds.
    path = directory / f"table-{next(_table_numbers)}.csv"
    config = {"command": "test", "length": "0:1:0.5"}
    write_sweep(str(path), rows, config, "csv")
    assert path.read_bytes() == oracle_csv(rows, config)


AWKWARD_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    1.0, -3.0, 150.0, 2.0**53, 1e16, 1e22, 0.1 + 0.2, 1.0 / 3.0,
)


def test_csv_writer_matches_the_csv_module_on_awkward_values(tmp_path):
    assert_written_as_oracle(tmp_path, [])
    # every awkward value lands in every float column, next to both flag values
    rows = [
        SweepRow(*[AWKWARD_FLOATS[(i + k) % len(AWKWARD_FLOATS)] for k in range(7)],
                 i % 2 == 0, AWKWARD_FLOATS[-i], AWKWARD_FLOATS[i])
        for i in range(len(AWKWARD_FLOATS))
    ]
    assert {r.fully_insecure for r in rows} == {True, False}
    assert_written_as_oracle(tmp_path, rows)


def test_csv_writer_matches_the_csv_module_on_qber_sweeps(tmp_path):
    rows = sweep_qber_curves((0.02, 0.5), length_grid(0.0, 80.0, 2.5))
    assert all(math.isnan(r.mu_opt) for r in rows)  # the writer's NaN cells
    assert_written_as_oracle(tmp_path, rows)


def test_csv_writer_matches_the_csv_module_on_optimal_intensity_sweep(tmp_path):
    rows = sweep_optimal_intensity(0.2, length_grid(0.0, 120.0, 2.5))
    assert_written_as_oracle(tmp_path, rows)


_any_float = st.floats(allow_nan=True, allow_infinity=True)
# Few values, so the writer's cell cache hits and 0.0 meets -0.0 in most tables.
_pooled_float = st.sampled_from((0.0, -0.0, math.nan, 1.0, 0.1, 150.0))


def _rows_of(cell, min_size, max_size):
    row = st.builds(
        SweepRow,
        *[cell] * 7,
        fully_insecure=st.booleans(),
        margin=cell,
        mu_opt=cell,
    )
    return st.lists(row, min_size=min_size, max_size=max_size)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=_rows_of(_any_float, 0, 5), pooled_rows=_rows_of(_pooled_float, 4, 8))
def test_csv_writer_matches_the_csv_module_on_any_rows(rows, pooled_rows, tmp_path):
    assert_written_as_oracle(tmp_path, rows)
    assert_written_as_oracle(tmp_path, pooled_rows)


def test_write_sweep_rejects_unknown_format(tmp_path):
    path = tmp_path / "table.xml"
    with pytest.raises(ValueError, match="xml"):
        write_sweep(str(path), [], {"command": "test"}, "xml")
    assert not path.exists()


def test_json_text_writes_nested_records_as_objects_and_non_finite_as_null():
    # writers hand each record over as its _asdict()
    row = SweepRow(0.2, 1.0, math.nan, 0.1, math.inf, -math.inf, 0.5, False, 0.0)
    text = _json_text({"row": row._asdict(), "pair": (1.0, math.nan)})
    payload = strict_json(text)
    assert list(payload["row"]) == list(SweepRow._fields)
    assert payload["row"]["mu"] == 0.2 and payload["row"]["qber_bs"] is None
    assert payload["row"]["i_ae_active"] is None and payload["row"]["mu_e_opt"] is None
    assert payload["row"]["fully_insecure"] is False
    assert payload["pair"] == [1.0, None]


def test_write_sweep_unwritable_path_has_context():
    with pytest.raises(OSError, match="no/such/dir"):
        write_sweep("/no/such/dir/out.csv", [], {"command": "test"}, "csv")


# ---------------------------------------------------------------------------
# optimal-intensity sweep


def test_optimal_intensity_sweep_rows():
    rows = sweep_optimal_intensity(0.2, length_grid(10.0, 60.0, 10.0))
    assert [r.length_km for r in rows] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    for row in rows:
        assert row.mu_opt == row.mu
        assert row.qber_bs >= 0.0
        if row.margin > 0.0:
            assert row.qber_active > 0.0
        # local re-check of the maximiser
        params = lambda m: ProtocolParams(mu=m, delta=0.2)
        for shift in (-0.01, 0.01):
            mu = row.mu_opt + shift
            if 0.0 < mu <= 2.0:
                assert row.margin >= key_rate_margin(params(mu), row.length_km) - 1e-12


@pytest.mark.parametrize("delta", [0.2, 0.35])
def test_optimal_intensity_sweep_margin_is_the_optimisers_margin(delta):
    # the rows take their margin from the plan, not from the optimiser
    rows = sweep_optimal_intensity(delta, length_grid(0.0, 300.0, 0.5))
    for row in rows:
        assert row.margin == optimal_source_intensity(delta, row.length_km).margin


def test_qber_sweep_columns_are_the_librarys_values_on_every_row():
    # secure rows and fully insecure ones: each mu turns fully insecure
    # inside the grid, from about 30 km at mu = 1.9 to 115 km at mu = 0.02
    rows = sweep_qber_curves((0.02, 0.1, 0.5, 1.0, 1.9), length_grid(0.0, 150.0, 0.5))
    assert any(row.fully_insecure for row in rows) and not all(row.fully_insecure for row in rows)
    for row in rows:
        p = ProtocolParams(row.mu, delta=0.2)
        plan = active_plan(p, row.length_km)
        assert row.margin == key_rate_margin(p, row.length_km)
        assert (row.mu_e_opt, row.block_fraction) == (plan.mu_e, plan.block_fraction)
        assert active_attack(p, row.length_km).plan == plan


def test_each_analysed_point_attenuates_only_in_its_channel_points(monkeypatch):
    # every module binding of core.transmittance is counted, as bench/trace.py
    # patches them: a row attenuates in bs_attack's and active_attack's
    # channel points, and its margin is the plan's
    from cowsec import attacks, core, montecarlo, sweeps
    from cowsec.montecarlo import decoy_distortion

    calls = []
    transmittance = core.transmittance

    def counted(*args):
        calls.append(args)
        return transmittance(*args)

    for module in (core, attacks, montecarlo, sweeps, cli):
        if getattr(module, "transmittance", None) is transmittance:
            monkeypatch.setattr(module, "transmittance", counted)
    rows = sweep_qber_curves([0.2], length_grid(0, 150, 10))
    assert (len(rows), len(calls)) == (16, 32)
    calls.clear()
    # one plan each for the attacked run and the report, one lossy line for the baseline
    decoy_distortion(ProtocolParams(0.2), 20.0, 0.1, 64, 1)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Monte Carlo validation harness


def test_validation_passes_at_default_point():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.1, 1_000_000, 42)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "no_attack_info_click_rate",
        "no_attack_decoy_double_rate",
        "attack_bob_info_click_rate",
        "attack_eve_conclusive_info_rate",
        "attack_blocked_fraction",
        "attack_i_ae_proxy",
    ]
    assert all(abs(c.z) < 4.0 for c in report.checks)
    assert any(r.pulse_class == "decoy" and r.pattern == "double" and r.flagged
               for r in report.distortion.rows)


def test_validation_report_is_deterministic():
    a = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.1, 200_000, 11)
    b = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.1, 200_000, 11)
    assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())


def test_validation_small_sample_marks_low_power():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.1, 100, 42)
    statuses = {c.name: c.status for c in report.checks}
    assert "fail" not in statuses.values()
    assert statuses["no_attack_info_click_rate"] == "low_power"
    assert statuses["attack_i_ae_proxy"] == "low_power"
    assert report.passed  # low power is not failure


def test_validation_verdict_names_each_outcome():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.1, 1_000_000, 42)
    assert report.verdict == "all checks passed"
    weak = run_montecarlo_validation(ProtocolParams(mu=0.1), 200.0, 0.1, 100, 42)
    assert {c.status for c in weak.checks} == {"low_power"}
    assert weak.verdict == "no check had the power to pass: all low_power, nothing was tested"
    bad = CheckResult("attack_blocked_fraction", 0.2, 0.1, 0.001, 100.0, "fail")
    failed = report._replace(checks=report.checks[:2] + (bad,))
    assert not failed.passed
    assert failed.verdict == "FAILED: attack_blocked_fraction"


@pytest.mark.parametrize(
    "count, n_eff, expected, status",
    [
        (0, 10, 0.0, "pass"),
        (1, 10, 0.0, "fail"),
        (10, 10, 1.0, "pass"),
        (9, 10, 1.0, "fail"),
        (0, 9, 0.0, "low_power"),
        (8, 9, 1.0, "low_power"),
        (0, 0, 1.0, "low_power"),
    ],
)
def test_check_of_a_certain_rate_is_exact(count, n_eff, expected, status):
    # a rate of 0 or 1 has no spread to scale a z-score by: with enough
    # trials the count must equal n_eff * expected, and z stays NaN
    check = _make_check("c", count, n_eff, expected)
    assert check.status == status
    assert math.isnan(check.z)


@pytest.mark.parametrize(
    "args, exact",
    [
        # beyond the fully-insecure length Eve knows every delivered bit
        (["--mu", "0.5", "--decoy-fraction", "0", "--length", "54.9"], ["attack_i_ae_proxy"]),
        (["--length", "100", "--pulses", "262144"], ["attack_i_ae_proxy"]),
        # at 0 km Eve diverts nothing, so she is never conclusive and blocks nothing
        (
            ["--length", "0"],
            ["attack_eve_conclusive_info_rate", "attack_blocked_fraction", "attack_i_ae_proxy"],
        ),
    ],
    ids=["insecure_without_decoys", "insecure", "zero_km"],
)
def test_cli_validate_mc_checks_certain_rates_exactly(args, exact, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", *args, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in exact:
        assert checks[name]["expected"] in (0.0, 1.0)
        assert checks[name]["status"] == "pass", name
        assert checks[name]["z"] is None


@pytest.mark.parametrize("f", [0.1, 0.5])
def test_validation_passes_at_every_length(f):
    # from 0 km to a third beyond the fully-insecure length, blocking
    # cap included, the simulator agrees with every closed form
    p = ProtocolParams(mu=0.2)
    l_star = fully_insecure_length(p)
    for k in (0, 3, 6, 8, 10, 11, 12, 14, 16):
        report = run_montecarlo_validation(p, k / 12 * l_star, f, 2**18, 42)
        assert report.passed, (k, report.verdict)


@pytest.mark.parametrize("f", [0.1, 0.0])
@pytest.mark.parametrize("length", [5.0, 40.0, 150.0])
def test_validation_takes_the_one_plan_its_distortion_report_carries(f, length):
    # below the critical length, blocking and beyond the fully-insecure length
    from cowsec.core import channel_point
    from cowsec.montecarlo import decoy_distortion

    p = ProtocolParams(mu=0.2)
    budget = channel_point(p, length).mu_e_max
    for mu_e in (None, 0.4 * budget, budget):
        assert decoy_distortion(p, length, f, 1000, 3, mu_e=mu_e).plan == active_plan(p, length, mu_e)
    report = run_montecarlo_validation(p, length, f, 1000, 3)
    plan = report.distortion.plan
    assert plan == active_plan(p, length)
    assert report.checks[-1].expected == plan.i_ae
    # the JSON plan block keeps its nine keys: every plan field but the margin
    block = report.to_jsonable()["plan"]
    assert list(block) == list(ActiveAttackPlan._fields[:-1])
    assert block == {name: getattr(plan, name) for name in block}


def test_validation_without_decoys_skips_decoy_check():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 0.0, 100_000, 42)
    assert "no_attack_decoy_double_rate" not in {c.name for c in report.checks}


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_qber_curves(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = cli.main(
        ["qber-curves", "--mu", "0.1,0.5", "--length", "0:20:5", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 10 rows" in capsys.readouterr().out
    header, rows = read_csv_table(str(out))
    assert len(rows) == 10
    assert header["delta"] == f"{0.2:.17g}"  # default made explicit
    assert "decoy_fraction" not in header  # the simulator's setting; no column depends on it


def test_cli_qber_curves_json(tmp_path):
    out = tmp_path / "fig1.json"
    assert cli.main(["qber-curves", "--length", "0:10:5", "--format", "json", "--out", str(out)]) == 0
    meta, rows = read_json_table(str(out))
    assert len(rows) == 3 * 3
    assert meta["version"]


def test_cli_optimal_intensity(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["optimal-intensity", "--length", "10:30:10", "--out", str(out)]) == 0
    _, rows = read_csv_table(str(out))
    assert [r.length_km for r in rows] == [10.0, 20.0, 30.0]


def test_cli_attack_report(capsys):
    code = cli.main(
        ["attack-report", "--mu", "0.5", "--delta", "0.2", "--length", "20"]
    )
    assert code == 0
    text = capsys.readouterr().out
    for fragment in (
        "mu_B",
        "mu_E_max",
        "blocked fraction",
        "critical QBER",
        "fully insecure",
        "key-rate margin",
    ):
        assert fragment in text


def log_uniform(lo, hi):
    # 10**e may round below lo near the subnormal end, so it is clamped back
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


@settings(derandomize=True, max_examples=300, deadline=None)
@example(mu=1e-300, length=1.0, delta=0.2)
@example(mu=5e-324, length=1.0, delta=0.2)
@given(
    mu=log_uniform(5e-324, 1e300),
    length=st.just(0.0) | log_uniform(1e-300, 1e6),
    delta=log_uniform(1e-300, 1e300),
)
def test_cli_attack_report_never_raises(mu, length, delta):
    argv = ["attack-report", "--mu", repr(mu), "--length", repr(length), "--delta", repr(delta)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 2)


def test_cli_invalid_arguments_exit_2(tmp_path, capsys):
    assert cli.main(["qber-curves", "--length", "nonsense", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--length", "0:10", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--mu", "0.1,bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--mu", "", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--delta", "-1", "--length", "0:10:5", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["qber-curves", "--no-such-flag", "1", "--out", "x.csv"]) == 2
    assert cli.main(["validate-mc", "--pulses", "0", "--out", str(tmp_path / "r.json")]) == 2
    assert cli.main(["validate-mc", "--pulses", "-1", "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()
    # non-finite values are rejected by the library checks, naming the quantity
    for argv, name in (
        (["qber-curves", "--length", "0:inf:1"], "length range"),
        (["qber-curves", "--length", "nan:10:1"], "length range"),
        (["qber-curves", "--mu", "0.1,inf"], "source intensity"),
        (["qber-curves", "--mu", "nan"], "source intensity"),
        (["optimal-intensity", "--length", "1:10:inf"], "length range"),
        (["attack-report", "--mu", "0.5", "--length", "nan"], "channel length"),
        (["attack-report", "--mu", "inf", "--length", "20"], "source intensity"),
        (["attack-report", "--mu", "0.5", "--length", "20", "--delta", "inf"], "attenuation"),
    ):
        if argv[0] != "attack-report":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert name in err and "finite" in err, (argv, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qber-curves", "--length", "0:5:5"], "cannot write sweep table to"),
        (
            ["optimal-intensity", "--length", "1:2:1", "--format", "json"],
            "cannot write sweep table to",
        ),
        (["validate-mc", "--pulses", "1000"], "cannot write report to"),
    ],
    ids=["qber-curves", "optimal-intensity", "validate-mc"],
)
def test_cli_io_error_exit_3(argv, message, tmp_path, capsys):
    # every command that writes a file, each naming what it could not write
    out = tmp_path / "missing" / "out"
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert f"{message} {out}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [[], ["--pulses", "100", "--length", "200", "--mu", "0.1"]], ids=["default", "low-power"]
)
def test_cli_validate_mc_file_holds_the_bytes_it_prints(args, tmp_path, capsysbinary):
    # the report's two routes, --out and stdout, cannot drift apart
    cli.main(["validate-mc", *args])
    printed = capsysbinary.readouterr().out
    out = tmp_path / "r.json"
    cli.main(["validate-mc", *args, "--out", str(out)])
    assert out.read_bytes() == printed
    assert b"\r" not in printed and printed.endswith(b"}\n")


def test_cli_validate_mc_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["validate-mc", "--mu", "0.2", "--length", "20", "--pulses", "300000", "--seed", "42"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True
    assert payload["config"]["seed"] == 42


# SHA-256 of each exit code as text, then each report's bytes, over the grid below.
VALIDATION_GRID_SHA256 = "5c664df2dc445a222049dea9d42129c27cd6034622660ada65ed15ab914bd914"


def test_cli_validate_mc_bytes_across_regimes(tmp_path):
    # 0 km, blocking, the blocking cap, beyond the fully-insecure length, no decoys, mu = 50
    digest = hashlib.sha256()
    out = tmp_path / "r.json"
    with redirect_stdout(io.StringIO()):
        for mu, length, f in itertools.product(
            ("0.02", "0.2", "0.5", "1", "50"),
            ("0", "5", "20", "40", "60", "100", "200"),
            ("0", "0.1", "0.5"),
        ):
            code = cli.main(
                ["validate-mc", "--mu", mu, "--length", length, "--decoy-fraction", f,
                 "--pulses", "20000", "--seed", "7", "--out", str(out)]
            )
            digest.update(str(code).encode())
            digest.update(out.read_bytes())
    assert digest.hexdigest() == VALIDATION_GRID_SHA256


def test_cli_validate_mc_stdout(capsys):
    code = cli.main(["validate-mc", "--pulses", "50000", "--seed", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_pulses"] == 50000
    assert code in (0, 1)  # small sample may legitimately wobble past 4 sigma
    assert code == (0 if payload["passed"] else 1)


def test_cli_validate_mc_verdict_names_missing_power(tmp_path, capsys):
    # at 200 km a hundred pulses leave every check low-powered: the verdict
    # must not claim that any check passed
    out = tmp_path / "r.json"
    cli.main(
        ["validate-mc", "--pulses", "100", "--length", "200", "--mu", "0.1", "--out", str(out)]
    )
    verdict = capsys.readouterr().out
    assert "no check had the power to pass" in verdict
    assert "all checks passed" not in verdict
    assert {c["status"] for c in json.loads(out.read_text())["checks"]} == {"low_power"}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        # mu_opt is NaN in every qber-curves row
        ["qber-curves", "--mu", "0.2", "--length", "0:30:10", "--format", "json"],
        # the i_ae proxy check has a zero stderr, so its z is NaN
        ["validate-mc", "--pulses", "100", "--length", "200", "--mu", "0.1"],
    ],
)
def test_cli_json_outputs_parse_strictly(argv, tmp_path):
    out = tmp_path / "out.json"
    cli.main(argv + ["--out", str(out)])
    strict_json(out.read_text())


@pytest.mark.parametrize(
    "args",
    [["--length", "100", "--pulses", "262144"], ["--mu", "50", "--pulses", "1000"]],
)
def test_cli_validate_mc_plan_at_blocking_cap_passes(args, tmp_path):
    # plans that block every pulse Eve finds inconclusive, decoys included
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", *args, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["plan"]["block_fraction"] == 1.0 - report["plan"]["p_conc_inf"]


def test_closed_form_path_does_not_import_numpy(tmp_path):
    # Against a bare interpreter's modules: importing the CLI, an
    # attack-report and --help load none of the sweep or simulation layers,
    # nor dataclasses and the inspect it pulls in; the sweep commands load
    # no simulator, and no command loads dataclasses (numpy loads inspect).
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        bare = set(sys.modules)
        import io
        from contextlib import redirect_stdout
        heavy = ("numpy", "cowsec.sweeps", "cowsec.montecarlo", "json", "csv", "dataclasses",
                 "inspect")
        added = {}
        import cowsec, cowsec.cli

        def run(step, *argv):
            with redirect_stdout(io.StringIO()):
                cowsec.cli.main(argv)
            added[step] = [m for m in heavy if m in sys.modules and m not in bare]

        added["import"] = [m for m in heavy if m in sys.modules and m not in bare]
        run("attack-report", "attack-report", "--mu", "0.2", "--length", "40")
        run("--help", "--help")
        out = sys.argv[1]
        run("qber-curves", "qber-curves", "--length", "0:10:5", "--out", out)
        run("optimal-intensity", "optimal-intensity", "--length", "1:10:5", "--out", out)
        run("validate-mc", "validate-mc", "--pulses", "1000", "--out", out)
        import json
        print(json.dumps(added))
    """)
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    added = json.loads(result.stdout)
    assert {step: added[step] for step in ("import", "attack-report", "--help")} == {
        "import": [], "attack-report": [], "--help": []
    }
    for step in ("qber-curves", "optimal-intensity"):
        assert "cowsec.sweeps" in added[step]
        assert not {"numpy", "cowsec.montecarlo", "dataclasses", "inspect"} & set(added[step])
    assert "numpy" in added["validate-mc"] and "dataclasses" not in added["validate-mc"]


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; syntax newer than
    # that (an except* block, say) fails to parse here
    root = Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "tests", "demos", "bench") for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_imported_name_is_used_or_exported():
    # A deletion that leaves an import behind fails here. Annotations are
    # expressions of the tree, so a name read only by one counts as used.
    unused = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
            for name in ast.literal_eval(node.value)
        }
        if imported - used - exported:
            unused[path.name] = sorted(imported - used - exported)
    assert unused == {}


# Every read of another cowsec module's private name; a new one must be added here.
ALLOWED_PRIVATE_READS = {
    ("cli", "sweeps", "_write_report"),
    ("montecarlo", "core", "_binomial_se"),
    ("sweeps", "core", "_binomial_se"),
    ("sweeps", "montecarlo", "_stream_pair"),
}


def test_modules_read_other_modules_private_names_only_from_the_allowed_list():
    # covers `from .x import _n` and `x._n` after `from . import x`
    reads = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                reads.add((path.stem, node.value.id, node.attr))
    assert reads == ALLOWED_PRIVATE_READS


def test_each_public_name_is_exported_and_imported_only_from_its_defining_module():
    # one home per name: a re-export, or an import through a module that
    # only imported the name itself, would give a name a second home
    package = Path(cli.__file__).parent
    root = package.parent.parent
    names = ["cowsec"] + [f"cowsec.{p.stem}" for p in sorted(package.glob("*.py")) if p.stem != "__init__"]
    modules = {name: importlib.import_module(name) for name in names}
    imported = {
        name: {
            alias.asname or alias.name
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        for name, module in modules.items()
    }

    def defines(source, name):
        value = getattr(modules[source], name)
        if isinstance(value, types.ModuleType):
            return value.__name__ == f"{source}.{name}"
        if callable(value):  # a function or a class
            return value.__module__ == source
        return name not in imported[source]

    assert modules["cowsec"].__all__ == ["__version__"]
    root_names = [n for n, v in vars(modules["cowsec"]).items() if not isinstance(v, types.ModuleType)]
    assert [n for n in root_names if not n.startswith("__")] == []
    for name, module in modules.items():
        assert not hasattr(module, "__getattr__"), name
        assert [n for n in module.__all__ if not defines(name, n)] == [], name

    wrong = []
    paths = [p for d in (package, root / "tests", root / "demos") for p in sorted(d.glob("*.py"))]
    assert len(paths) > 15
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module
            if node.level:  # the package is flat: `from . import` or `from .x import`
                source = f"cowsec.{node.module}" if node.module else "cowsec"
            if source in modules:
                where = path.relative_to(root).as_posix()
                wrong += [(where, source, a.name) for a in node.names if not defines(source, a.name)]
    assert wrong == []


def innermost_functions(tree):
    """Each node of tree mapped to the name of the innermost function holding it."""
    owner = {}
    for func in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return owner


def test_only_active_plan_builds_an_active_attack_plan():
    # a plan built elsewhere could carry an i_ae or margin its rates do not
    # give; `ActiveAttackPlan(...)`, `._make` and `._replace` on the class count
    package = Path(cli.__file__).parent
    root = package.parent.parent
    paths = [p for d in (package, root / "tests", root / "demos") for p in sorted(d.glob("*.py"))]
    builders = []
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = innermost_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "ActiveAttackPlan" in ast.unparse(node.func).split(".")[-2:]:
                builders.append((path.relative_to(root).as_posix(), owner.get(node)))
    assert builders == [("src/cowsec/attacks.py", "active_plan")]


def test_only_the_simulator_takes_a_decoy_fraction():
    # the closed forms depend on mu, delta and L alone; the decoy fraction is
    # a required argument of each simulator entry point, right after the
    # length, so a call of the old (params, length, n_pulses, seed) shape fails
    from cowsec import montecarlo

    assert ProtocolParams._fields == ("mu", "delta")
    entry_points = (
        montecarlo.simulate_no_attack,
        montecarlo.simulate_active_attack,
        montecarlo.decoy_distortion,
        run_montecarlo_validation,
    )
    for entry in entry_points:
        names = list(inspect.signature(entry).parameters)
        assert names[:3] == ["params", "length_km", "decoy_fraction"], entry.__name__
        default = inspect.signature(entry).parameters["decoy_fraction"].default
        assert default is inspect.Parameter.empty, entry.__name__
    # every simulator run covers pulses 0 to n_pulses - 1, and mu_e is a
    # keyword, so a stale positional sixth argument raises TypeError
    positional = ["params", "length_km", "decoy_fraction", "n_pulses", "seed"]
    for entry, keywords in (
        (montecarlo.simulate_no_attack, []),
        (montecarlo.simulate_active_attack, ["mu_e"]),
        (montecarlo.decoy_distortion, ["mu_e"]),
    ):
        parameters = inspect.signature(entry).parameters.values()
        assert [p.name for p in parameters] == positional + keywords, entry.__name__
        kinds = [p.kind is inspect.Parameter.KEYWORD_ONLY for p in parameters]
        assert kinds == [False] * len(positional) + [True] * len(keywords), entry.__name__
    with pytest.raises(TypeError):
        montecarlo.simulate_active_attack(ProtocolParams(0.2), 20.0, 0.1, 10, 42, 0)
    with pytest.raises(TypeError):
        montecarlo.decoy_distortion(ProtocolParams(0.2), 20.0, 0.1, 10, 42, 0.05)
    package = Path(cli.__file__).parent
    readers = [path.stem for path in sorted(package.glob("*.py")) if "decoy_fraction" in path.read_text()]
    assert readers == ["cli", "montecarlo", "sweeps"]


def test_every_qber_table_carries_both_attacks():
    # no attack selection: a row without the active analysis cannot be built,
    # so fully_insecure never falls back to a default of False; the sweeps
    # take a built length grid and no output settings
    signatures = {
        sweep: [(p.name, p.default) for p in inspect.signature(sweep).parameters.values()]
        for sweep in (sweep_qber_curves, sweep_optimal_intensity)
    }
    empty = inspect.Parameter.empty
    assert signatures == {
        sweep_qber_curves: [("mu_list", empty), ("lengths", empty), ("delta", 0.2)],
        sweep_optimal_intensity: [("delta", empty), ("lengths", empty)],
    }
    assert list(SweepRow._field_defaults) == ["mu_opt"]
    rows = sweep_qber_curves((0.1, 0.5), length_grid(0.0, 150.0, 10.0))
    for row in rows:
        assert all(map(math.isfinite, (row.qber_bs, row.qber_active, row.margin))), row
        assert row.fully_insecure == (row.qber_active == 0), row
    assert {row.fully_insecure for row in rows} == {True, False}


def test_only_the_cli_builds_a_table_header_and_names_its_commands():
    # a sweep computes rows; the header that names the command writing a
    # table is built in cli.py, the one home of the command names (string
    # constants of code count, docstrings do not), by one function, which
    # is also the one caller of write_sweep
    words = ("command", "qber-curves", "optimal-intensity")
    found, writers, header_builders = set(), set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = innermost_functions(tree)
        for node in ast.walk(tree):
            if getattr(getattr(node, "func", None), "id", None) == "write_sweep":
                writers.add((path.stem, owner.get(node)))
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "command" for k in node.keys
            ):
                header_builders.add((path.stem, owner.get(node)))
        docstrings = {
            node.body[0].value
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docstrings:
                found.update(
                    (path.stem, word)
                    for word in words
                    if (node.value == word if word == "command" else word in node.value)
                )
    assert found == {("cli", word) for word in words}
    assert writers == header_builders == {("cli", "_write_table")}


def test_one_function_opens_files_and_it_translates_no_newlines():
    # every output file goes through sweeps._write; a second writer, or one
    # that translates newlines, would let bytes differ by command or platform
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = innermost_functions(tree)
        for node in ast.walk(tree):
            called = getattr(node, "func", None)
            if getattr(called, "id", getattr(called, "attr", None)) in ("open", "write_text"):
                found.append(((path.stem, owner.get(node)), node))
    assert [where for where, _ in found] == [("sweeps", "_write")]
    keywords = {k.arg: ast.literal_eval(k.value) for k in found[0][1].keywords}
    assert keywords == {"newline": ""}


def test_cli_validate_mc_failure_exit_code(monkeypatch, tmp_path, capsys):
    class FailingReport:
        passed = False
        checks = ()
        verdict = "FAILED: stand-in"

        def to_jsonable(self):
            return {"passed": False}

    monkeypatch.setattr("cowsec.sweeps.run_montecarlo_validation", lambda *a, **k: FailingReport())
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", "--pulses", "1000", "--out", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().out or json.loads(out.read_text())["passed"] is False
