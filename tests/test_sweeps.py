"""Sweep tables, serialisation round-trips, validation harness and CLI."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

import cowsec.cli as cli
from cowsec.core import ProtocolParams
from cowsec.attacks import key_rate_margin, optimal_source_intensity
from cowsec.sweeps import (
    CheckResult,
    SweepRow,
    SweepSpec,
    length_grid,
    read_sweep_csv,
    read_sweep_json,
    run_montecarlo_validation,
    sweep_optimal_intensity,
    sweep_qber_curves,
    write_sweep,
)


def rows_equal(a: SweepRow, b: SweepRow) -> bool:
    for field in SweepRow.__dataclass_fields__:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
            if x != y:
                return False
        elif x != y:
            return False
    return True


def small_spec(tmp_path=None, fmt="csv", attacks=("bs", "active")):
    return SweepSpec(
        mu_list=(0.1, 0.5),
        delta=0.2,
        decoy_fraction=0.1,
        l_min=0.0,
        l_max=60.0,
        l_step=5.0,
        attacks=attacks,
        output_path=str(tmp_path) if tmp_path else None,
        format=fmt,
    )


# ---------------------------------------------------------------------------
# spec validation and grids


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
        {"mu_list": (0.1,), "format": "xml"},
        {"mu_list": (math.nan,)},
        {"mu_list": (math.inf,)},
        {"mu_list": (0.1,), "delta": math.inf},
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


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
        SweepSpec(mu_list=(0.1,), l_max=math.inf)
    with pytest.raises(ValueError, match="cap"):
        SweepSpec(mu_list=(0.1,), l_max=1e12, l_step=1e-6)


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
    _, rows = read_sweep_csv(str(out))
    assert len(rows) == 1
    assert rows[0].fully_insecure
    assert rows[0].i_ae_active < 1.0
    assert rows[0].margin == 0.0


# ---------------------------------------------------------------------------
# qber curves


def test_qber_sweep_shape_and_endpoints():
    spec = SweepSpec(mu_list=(0.1, 0.2, 0.5))
    rows = sweep_qber_curves(spec)
    assert len(rows) == 3 * 151
    assert [r.mu for r in rows] == sorted(r.mu for r in rows)
    zero_length = [r for r in rows if r.length_km == 0.0]
    assert all(r.qber_bs == 0.5 and r.qber_active == 0.5 for r in zero_length)
    # the active curve for mu=0.5 hits zero just before 50 km and stays there
    tail = [r for r in rows if r.mu == 0.5 and r.length_km >= 50.0]
    assert all(r.qber_active == 0.0 and r.fully_insecure for r in tail)
    head = [r for r in rows if r.mu == 0.5 and r.length_km <= 49.0]
    assert all(r.qber_active > 0.0 for r in head)


def test_qber_sweep_single_attack_leaves_nan_columns():
    spec = small_spec(attacks=("bs",))
    rows = sweep_qber_curves(spec)
    assert all(math.isnan(r.qber_active) and math.isnan(r.margin) for r in rows)
    assert all(not math.isnan(r.qber_bs) for r in rows)


def test_qber_sweep_worker_count_does_not_change_rows(tmp_path):
    spec = small_spec()
    serial = sweep_qber_curves(spec, workers=1)
    threaded = sweep_qber_curves(spec, workers=4)
    assert len(serial) == len(threaded)
    assert all(rows_equal(a, b) for a, b in zip(serial, threaded))

    p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    sweep_qber_curves(small_spec(p1), workers=1)
    sweep_qber_curves(small_spec(p4), workers=4)
    assert p1.read_bytes() == p4.read_bytes()


# ---------------------------------------------------------------------------
# serialisation round-trips


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_preserves_rows_exactly(tmp_path, fmt):
    path = tmp_path / f"table.{fmt}"
    spec = small_spec(path, fmt=fmt)
    rows = sweep_qber_curves(spec)
    header, back = (read_sweep_csv if fmt == "csv" else read_sweep_json)(str(path))
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
    _, back = read_sweep_csv(str(path))
    assert rows_equal(back[0], awkward)


def test_write_sweep_rejects_unknown_format(tmp_path):
    path = tmp_path / "table.xml"
    with pytest.raises(ValueError, match="xml"):
        write_sweep(str(path), [], {"command": "test"}, "xml")
    assert not path.exists()


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
        assert row.margin == optimal_source_intensity(delta, 0.1, row.length_km).margin


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
    failed = replace(report, checks=report.checks[:2] + (bad,))
    assert not failed.passed
    assert failed.verdict == "FAILED: attack_blocked_fraction"


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
    header, rows = read_sweep_csv(str(out))
    assert len(rows) == 10
    assert header["decoy_fraction"] == f"{0.1:.17g}"  # default made explicit


def test_cli_qber_curves_json(tmp_path):
    out = tmp_path / "fig1.json"
    assert cli.main(["qber-curves", "--length", "0:10:5", "--format", "json", "--out", str(out)]) == 0
    meta, rows = read_sweep_json(str(out))
    assert len(rows) == 3 * 3
    assert meta["version"]


def test_cli_optimal_intensity(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["optimal-intensity", "--length", "10:30:10", "--out", str(out)]) == 0
    _, rows = read_sweep_csv(str(out))
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


def test_cli_invalid_arguments_exit_2(tmp_path, capsys):
    assert cli.main(["qber-curves", "--length", "nonsense", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--length", "0:10", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--mu", "0.1,bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["qber-curves", "--delta", "-1", "--length", "0:10:5", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["qber-curves", "--no-such-flag", "1", "--out", "x.csv"]) == 2
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


def test_cli_validate_mc_infeasible_plan_exits_1(tmp_path, capsys):
    # valid arguments whose plan blocks more than Eve finds inconclusive:
    # a failed validation, not a bad argument, and no report is written
    out = tmp_path / "r.json"
    argv = ["validate-mc", "--length", "100", "--pulses", "262144", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "inconclusive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_mc_failure_exit_code(monkeypatch, tmp_path, capsys):
    class FailingReport:
        passed = False
        checks = ()
        verdict = "FAILED: stand-in"

        def to_jsonable(self):
            return {"passed": False}

    monkeypatch.setattr(cli, "run_montecarlo_validation", lambda *a, **k: FailingReport())
    out = tmp_path / "r.json"
    assert cli.main(["validate-mc", "--pulses", "1000", "--out", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().out or json.loads(out.read_text())["passed"] is False
