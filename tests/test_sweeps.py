"""Sweep tables, serialisation round-trips, validation harness and CLI."""

import ast
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cowsec.cli as cli
from cowsec import __version__
from cowsec.core import ProtocolParams
from cowsec.attacks import (
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


def small_sweep(tmp_path=None, fmt="csv", attacks=("bs", "active")):
    return sweep_qber_curves(
        mu_list=(0.1, 0.5),
        delta=0.2,
        decoy_fraction=0.1,
        l_min=0.0,
        l_max=60.0,
        l_step=5.0,
        attacks=attacks,
        output_path=str(tmp_path) if tmp_path else None,
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# sweep validation and grids


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu_list": ()},
        {"mu_list": (0.1, -0.2)},
        {"mu_list": (0.1,), "delta": 0.0},
        {"mu_list": (0.1,), "decoy_fraction": 1.0},
        {"mu_list": (0.1,), "l_min": -1.0},
        {"mu_list": (0.1,), "l_step": 0.0},
        {"mu_list": (0.1,), "l_min": 10.0, "l_max": 5.0},
        {"mu_list": (0.1,), "attacks": ()},
        {"mu_list": (0.1,), "attacks": ("bs", "ufo")},
        {"mu_list": (0.1,), "fmt": "xml"},
        {"mu_list": (math.nan,)},
        {"mu_list": (math.inf,)},
        {"mu_list": (0.1,), "delta": math.inf},
    ],
)
def test_sweep_spec_validation(kwargs, tmp_path, monkeypatch):
    # every setting is checked before a row is computed or a file opened
    def no_row(*args):
        pytest.fail("a row was computed before the settings were checked")

    monkeypatch.setattr("cowsec.sweeps._qber_row", no_row)
    out = tmp_path / "table"
    with pytest.raises(ValueError):
        sweep_qber_curves(**kwargs, output_path=str(out))
    assert not out.exists()


def test_every_record_is_immutable():
    from cowsec.core import channel_point
    from cowsec.montecarlo import ClassTally, TrialStats

    params = ProtocolParams(0.2)
    active = active_attack(params, 20.0)
    report = run_montecarlo_validation(params, 20.0, 1000, 1)
    records = [
        params, channel_point(params, 20.0), active.plan, active,
        optimal_source_intensity(0.2, 20.0), SweepRow(0.2, 20.0),
        report.checks[0], report, report.distortion, report.distortion.rows[0], ClassTally(),
        TrialStats(1, 1),
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


def test_length_grid_allows_the_cap():
    assert len(length_grid(0.0, 999_999.0, 1.0)) == 1_000_000


def test_library_sweeps_reject_infinite_lengths():
    with pytest.raises(ValueError, match="finite"):
        sweep_optimal_intensity(0.2, 0.1, 0.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        sweep_qber_curves((0.1,), l_max=math.inf)
    with pytest.raises(ValueError, match="cap"):
        sweep_qber_curves((0.1,), l_max=1e12, l_step=1e-6)


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


def test_qber_row_margin_is_zero_inside_the_fully_insecure_band(tmp_path):
    # just below the fully-insecure length at mu 0.05 the active report is
    # fully insecure while 1 - i_ae is still a few 1e-13; the margin must be 0
    out = tmp_path / "band.csv"
    length = "95.68961614815218"
    assert cli.main(
        ["qber-curves", "--mu", "0.05", "--length", f"{length}:{length}:1", "--out", str(out)]
    ) == 0
    _, rows = read_csv_table(str(out))
    assert len(rows) == 1
    assert rows[0].fully_insecure
    assert rows[0].i_ae_active < 1.0
    assert rows[0].margin == 0.0


# ---------------------------------------------------------------------------
# qber curves


def test_qber_sweep_shape_and_endpoints():
    rows = sweep_qber_curves((0.1, 0.2, 0.5))
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
    # A repeated mu yields its rows twice; sorting is stable, so the equal
    # (mu, length) keys of the two copies sit next to each other.
    lengths = length_grid(0.0, 60.0, 7.5)
    rows = sweep_qber_curves((0.5, 0.1, 0.5, 0.02), l_min=0.0, l_max=60.0, l_step=7.5)
    expected = []
    for mu, copies in ((0.02, 1), (0.1, 1), (0.5, 2)):
        params = ProtocolParams(mu=mu, decoy_fraction=0.1, delta=0.2)
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
            expected.extend([row] * copies)
    assert len(rows) == len(expected) == 4 * len(lengths)
    assert all(rows_equal(a, b) for a, b in zip(rows, expected))


def test_qber_sweep_single_attack_leaves_nan_columns():
    rows = small_sweep(attacks=("bs",))
    assert all(math.isnan(r.qber_active) and math.isnan(r.margin) for r in rows)
    assert all(not math.isnan(r.qber_bs) for r in rows)


# ---------------------------------------------------------------------------
# serialisation round-trips


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_preserves_rows_exactly(tmp_path, fmt):
    path = tmp_path / f"table.{fmt}"
    rows = small_sweep(path, fmt=fmt)
    header, back = (read_csv_table if fmt == "csv" else read_json_table)(str(path))
    assert len(back) == len(rows)
    assert all(rows_equal(a, b) for a, b in zip(rows, back))
    # resolved configuration is embedded
    assert header["tool"] == "cowsec"
    assert header["command"] == "qber-curves"
    assert header["attacks"] == "bs,active"
    assert header["delta"] == f"{0.2:.17g}"


def test_seventeen_digit_rendering_round_trips_awkward_floats(tmp_path):
    awkward = SweepRow(mu=1.0 / 3.0, length_km=math.pi, qber_bs=0.1 + 0.2)
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


@pytest.mark.parametrize("attacks", [("bs",), ("active",), ("bs", "active")])
def test_csv_writer_matches_the_csv_module_on_qber_sweeps(attacks, tmp_path):
    rows = sweep_qber_curves((0.02, 0.5), l_max=80.0, l_step=2.5, attacks=attacks)
    assert_written_as_oracle(tmp_path, rows)


def test_csv_writer_matches_the_csv_module_on_optimal_intensity_sweep(tmp_path):
    rows = sweep_optimal_intensity(0.2, 0.1, 0.0, 120.0, 2.5)
    assert_written_as_oracle(tmp_path, rows)


_any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(
        st.builds(
            SweepRow,
            *[_any_float] * 7,
            fully_insecure=st.booleans(),
            margin=_any_float,
            mu_opt=_any_float,
        ),
        max_size=5,
    )
)
def test_csv_writer_matches_the_csv_module_on_any_rows(rows, tmp_path):
    assert_written_as_oracle(tmp_path, rows)


def test_write_sweep_rejects_unknown_format(tmp_path):
    path = tmp_path / "table.xml"
    with pytest.raises(ValueError, match="xml"):
        write_sweep(str(path), [], {"command": "test"}, "xml")
    assert not path.exists()


def test_json_text_writes_nested_records_as_objects_and_non_finite_as_null():
    # writers hand each record over as its _asdict()
    text = _json_text({"row": SweepRow(0.2, 1.0)._asdict(), "pair": (1.0, math.nan)})
    payload = strict_json(text)
    assert list(payload["row"]) == list(SweepRow._fields)
    assert payload["row"]["mu"] == 0.2 and payload["row"]["qber_bs"] is None
    assert payload["row"]["fully_insecure"] is False
    assert payload["pair"] == [1.0, None]


def test_write_sweep_unwritable_path_has_context():
    with pytest.raises(OSError, match="no/such/dir"):
        write_sweep("/no/such/dir/out.csv", [], {"command": "test"}, "csv")


# ---------------------------------------------------------------------------
# optimal-intensity sweep


def test_optimal_intensity_sweep_rows():
    rows = sweep_optimal_intensity(0.2, 0.1, 10.0, 60.0, 10.0)
    assert [r.length_km for r in rows] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    for row in rows:
        assert row.mu_opt == row.mu
        assert row.qber_bs >= 0.0
        if row.margin > 0.0:
            assert row.qber_active > 0.0
        # local re-check of the maximiser
        params = lambda m: ProtocolParams(mu=m, decoy_fraction=0.1, delta=0.2)
        for shift in (-0.01, 0.01):
            mu = row.mu_opt + shift
            if 0.0 < mu <= 2.0:
                assert row.margin >= key_rate_margin(params(mu), row.length_km) - 1e-12


@pytest.mark.parametrize("delta", [0.2, 0.35])
def test_optimal_intensity_sweep_margin_is_the_optimisers_margin(delta):
    # the rows take their margin from the qber row builder, not from the optimiser
    rows = sweep_optimal_intensity(delta, 0.1, 0.0, 300.0, 0.5)
    for row in rows:
        assert row.margin == optimal_source_intensity(delta, row.length_km).margin


def test_qber_sweep_columns_are_the_librarys_values_on_every_row():
    # secure rows and fully insecure ones: each mu turns fully insecure
    # inside the grid, from about 30 km at mu = 1.9 to 115 km at mu = 0.02
    rows = sweep_qber_curves((0.02, 0.1, 0.5, 1.0, 1.9), l_max=150.0, l_step=0.5)
    assert any(row.fully_insecure for row in rows) and not all(row.fully_insecure for row in rows)
    for row in rows:
        p = ProtocolParams(row.mu, 0.1, 0.2)
        plan = active_plan(p, row.length_km)
        assert row.margin == key_rate_margin(p, row.length_km)
        assert (row.mu_e_opt, row.block_fraction) == (plan.mu_e, plan.block_fraction)
        assert active_attack(p, row.length_km).plan == plan


def test_optimal_intensity_sweep_rejects_bad_range():
    with pytest.raises(ValueError):
        sweep_optimal_intensity(0.2, 0.1, 10.0, 5.0, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo validation harness


def test_validation_passes_at_default_point():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 1_000_000, 42)
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
    a = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 200_000, 11)
    b = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 200_000, 11)
    assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())


def test_validation_small_sample_marks_low_power():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 100, 42)
    statuses = {c.name: c.status for c in report.checks}
    assert "fail" not in statuses.values()
    assert statuses["no_attack_info_click_rate"] == "low_power"
    assert statuses["attack_i_ae_proxy"] == "low_power"
    assert report.passed  # low power is not failure


def test_validation_verdict_names_each_outcome():
    report = run_montecarlo_validation(ProtocolParams(mu=0.2), 20.0, 1_000_000, 42)
    assert report.verdict == "all checks passed"
    weak = run_montecarlo_validation(ProtocolParams(mu=0.1), 200.0, 100, 42)
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
    p = ProtocolParams(mu=0.2, decoy_fraction=f)
    l_star = fully_insecure_length(p)
    for k in (0, 3, 6, 8, 10, 11, 12, 14, 16):
        report = run_montecarlo_validation(p, k / 12 * l_star, 2**18, 42)
        assert report.passed, (k, report.verdict)


@pytest.mark.parametrize("f", [0.1, 0.0])
@pytest.mark.parametrize("length", [5.0, 40.0, 150.0])
def test_validation_takes_the_one_plan_its_distortion_report_carries(f, length):
    # below the critical length, blocking and beyond the fully-insecure length
    from cowsec.attacks import active_eve_info
    from cowsec.core import channel_point
    from cowsec.montecarlo import decoy_distortion

    p = ProtocolParams(mu=0.2, decoy_fraction=f)
    budget = channel_point(p, length).mu_e_max
    for mu_e in (None, 0.4 * budget, budget):
        assert decoy_distortion(p, length, 1000, 3, mu_e).plan == active_plan(p, length, mu_e)
    report = run_montecarlo_validation(p, length, 1000, 3)
    plan = report.distortion.plan
    assert plan == active_plan(p, length)
    assert report.plan == {**plan._asdict(), "i_ae": active_eve_info(plan)}


def test_validation_without_decoys_skips_decoy_check():
    report = run_montecarlo_validation(
        ProtocolParams(mu=0.2, decoy_fraction=0.0), 20.0, 100_000, 42
    )
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
    assert header["decoy_fraction"] == f"{0.1:.17g}"  # default made explicit


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
        ["attack-report", "--mu", "0.5", "--delta", "0.2", "--length", "20", "--decoy-fraction", "0.1"]
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
@example(mu=1e-300, length=1.0, delta=0.2, f=0.1)
@example(mu=5e-324, length=1.0, delta=0.2, f=0.1)
@given(
    mu=log_uniform(5e-324, 1e300),
    length=st.just(0.0) | log_uniform(1e-300, 1e6),
    delta=log_uniform(1e-300, 1e300),
    f=st.floats(0.0, 0.999),
)
def test_cli_attack_report_never_raises(mu, length, delta, f):
    argv = ["attack-report", "--mu", repr(mu), "--length", repr(length), "--delta", repr(delta)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--decoy-fraction", repr(f)]) in (0, 2)


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
    # non-finite values are rejected where they enter, naming the argument
    for argv, name in (
        (["qber-curves", "--length", "0:inf:1"], "--length"),
        (["qber-curves", "--length", "nan:10:1"], "--length"),
        (["qber-curves", "--mu", "0.1,inf"], "--mu"),
        (["qber-curves", "--mu", "nan"], "--mu"),
        (["optimal-intensity", "--length", "1:10:inf"], "--length"),
        (["attack-report", "--mu", "0.5", "--length", "nan"], "channel length"),
        (["attack-report", "--mu", "inf", "--length", "20"], "source intensity"),
        (["attack-report", "--mu", "0.5", "--length", "20", "--delta", "inf"], "attenuation"),
    ):
        if argv[0] != "attack-report":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert name in err and "finite" in err, (argv, err)


def test_cli_io_error_exit_3(capsys):
    assert cli.main(["qber-curves", "--length", "0:5:5", "--out", "/no/such/dir/f.csv"]) == 3
    assert "cannot write" in capsys.readouterr().err


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
VALIDATION_GRID_SHA256 = "d21e9512214fdf963b7a66d0f8e4e161333a5df946f58ce20985160f5dbeed1d"


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


def test_package_root_resolves_sweep_names_lazily():
    import cowsec
    import cowsec.sweeps

    namespace = {}
    exec("from cowsec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cowsec.__all__)
    assert len(cowsec.__all__) == 11
    for name in ("sweep_qber_curves", "sweep_optimal_intensity", "run_montecarlo_validation"):
        assert getattr(cowsec, name) is getattr(cowsec.sweeps, name)
        assert namespace[name] is getattr(cowsec.sweeps, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cowsec.no_such_name


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
    ("cli", "sweeps", "_json_text"),
    ("montecarlo", "core", "_binomial_se"),
    ("sweeps", "attacks", "_margin"),
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
