"""Parameter sweeps, figure-ready tables and the Monte Carlo validation harness.

Tables are plain lists of SweepRow; writers emit CSV (comma separated,
floats at 17 significant digits so 64-bit values round-trip exactly) or
JSON (same rows as objects plus a metadata block). Outputs carry the
fully resolved configuration in their header and contain nothing
time-dependent, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .attacks import (
    _margin,
    active_attack,
    active_eve_info,
    active_plan,
    bs_attack,
    optimal_mu_e,
    optimal_source_intensity,
)
from .core import ProtocolParams, attenuate, channel_point
from .montecarlo import (
    _BASELINE_STREAM,
    DistortionReport,
    _binomial_se,
    decoy_distortion,
    derive_stream_seed,
    simulate_active_attack,
    simulate_no_attack,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "CheckResult",
    "ValidationReport",
    "length_grid",
    "sweep_qber_curves",
    "sweep_optimal_intensity",
    "run_montecarlo_validation",
    "write_sweep",
    "read_sweep_csv",
    "read_sweep_json",
]

_ATTACK_NAMES = ("bs", "active")
_FORMATS = ("csv", "json")

# Largest length grid a sweep builds; checked before anything is allocated.
_MAX_GRID_POINTS = 10**6


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt}")


@dataclass(frozen=True)
class SweepSpec:
    """Resolved configuration of a critical-QBER sweep."""

    mu_list: Tuple[float, ...]
    delta: float = 0.2
    decoy_fraction: float = 0.1
    l_min: float = 0.0
    l_max: float = 150.0
    l_step: float = 1.0
    attacks: Tuple[str, ...] = ("bs", "active")
    output_path: Optional[str] = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if not self.mu_list:
            raise ValueError("mu_list must not be empty")
        for mu in self.mu_list:
            ProtocolParams(mu, self.decoy_fraction, self.delta)
        _grid_intervals(self.l_min, self.l_max, self.l_step)
        if not self.attacks or any(a not in _ATTACK_NAMES for a in self.attacks):
            raise ValueError(f"attacks must be a non-empty subset of {_ATTACK_NAMES}")
        _check_format(self.format)


@dataclass(frozen=True)
class SweepRow:
    """One (source intensity, length) point of a sweep table.

    Columns not produced by the requested computation are NaN (mu_opt is
    only set by the optimal-intensity sweep, qber_* only for the attacks
    actually requested).
    """

    mu: float
    length_km: float
    qber_bs: float = math.nan
    qber_active: float = math.nan
    i_ae_active: float = math.nan
    mu_e_opt: float = math.nan
    block_fraction: float = math.nan
    fully_insecure: bool = False
    margin: float = math.nan
    mu_opt: float = math.nan


_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _grid_intervals(l_min: float, l_max: float, l_step: float) -> int:
    """Number of steps in the inclusive grid l_min:l_max:l_step, checked against the cap."""
    grid = f"length range {l_min}:{l_max}:{l_step}"
    if not all(map(math.isfinite, (l_min, l_max, l_step))):
        raise ValueError(f"{grid} must be finite")
    if not l_step > 0:
        raise ValueError(f"{grid} needs a positive step")
    if l_min < 0:
        raise ValueError(f"{grid} starts below 0 km")
    if l_max < l_min:
        raise ValueError(f"{grid} ends below its start")
    steps = (l_max - l_min) / l_step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise ValueError(f"{grid} has more than {_MAX_GRID_POINTS} points, the cap on a sweep grid")
    return int(math.floor(steps))


def length_grid(l_min: float, l_max: float, l_step: float) -> List[float]:
    """Inclusive arithmetic length grid; 0:150:1 yields 151 points.

    Raises ValueError for non-finite bounds, a step that is not positive,
    a negative start, an end below the start or a grid of more than
    _MAX_GRID_POINTS points, before building it.
    """
    return [l_min + k * l_step for k in range(_grid_intervals(l_min, l_max, l_step) + 1)]


def _qber_row(mu: float, delta: float, f: float, length_km: float, attacks: Sequence[str]) -> SweepRow:
    params = ProtocolParams(mu=mu, decoy_fraction=f, delta=delta)
    kwargs: Dict[str, object] = {}
    if "bs" in attacks:
        kwargs["qber_bs"] = bs_attack(params, length_km).qber_critical
    if "active" in attacks:
        report = active_attack(params, length_km)
        mu_b = attenuate(mu, delta, length_km)
        kwargs.update(
            qber_active=report.qber_critical,
            i_ae_active=report.i_ae,
            mu_e_opt=report.plan.mu_e,
            block_fraction=report.plan.block_fraction,
            fully_insecure=report.fully_insecure,
            margin=_margin(mu_b, report.i_ae),
        )
    return SweepRow(mu=mu, length_km=length_km, **kwargs)


def sweep_qber_curves(spec: SweepSpec, workers: int = 1) -> List[SweepRow]:
    """Critical-QBER curves over a length grid, one row per (mu, length).

    Rows come back sorted by (mu, length). When spec.output_path is set
    the table is also written in spec.format. workers is accepted and
    ignored: rows are computed serially, because threads only slow this
    pure-Python work down under the interpreter lock.
    """
    lengths = length_grid(spec.l_min, spec.l_max, spec.l_step)
    rows = [
        _qber_row(mu, spec.delta, spec.decoy_fraction, l, spec.attacks)
        for mu in spec.mu_list
        for l in lengths
    ]
    rows.sort(key=lambda r: (r.mu, r.length_km))
    if spec.output_path is not None:
        write_sweep(spec.output_path, rows, _spec_config(spec, "qber-curves"), spec.format)
    return rows


def _optimal_row(delta: float, f: float, length_km: float) -> SweepRow:
    # _qber_row's margin runs the same operations as key_rate_margin, so it
    # equals optimal_source_intensity's margin bit for bit.
    mu = optimal_source_intensity(delta, f, length_km).mu
    return replace(_qber_row(mu, delta, f, length_km, _ATTACK_NAMES), mu_opt=mu)


def sweep_optimal_intensity(
    delta: float,
    f: float,
    l_min: float,
    l_max: float,
    l_step: float,
    output_path: Optional[str] = None,
    fmt: str = "csv",
    workers: int = 1,
) -> List[SweepRow]:
    """Per length: the margin-optimal source intensity and both critical QBERs there.

    workers is accepted and ignored, as in sweep_qber_curves.
    """
    _check_format(fmt)
    rows = [_optimal_row(delta, f, l) for l in length_grid(l_min, l_max, l_step)]
    if output_path is not None:
        config = {
            "command": "optimal-intensity",
            "delta": _fmt_float(delta),
            "decoy_fraction": _fmt_float(f),
            "length": f"{_fmt_float(l_min)}:{_fmt_float(l_max)}:{_fmt_float(l_step)}",
            "format": fmt,
        }
        write_sweep(output_path, rows, config, fmt)
    return rows


# ---------------------------------------------------------------------------
# serialisation

def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _spec_config(spec: SweepSpec, command: str) -> Dict[str, str]:
    return {
        "command": command,
        "mu": ",".join(_fmt_float(m) for m in spec.mu_list),
        "delta": _fmt_float(spec.delta),
        "decoy_fraction": _fmt_float(spec.decoy_fraction),
        "length": f"{_fmt_float(spec.l_min)}:{_fmt_float(spec.l_max)}:{_fmt_float(spec.l_step)}",
        "attacks": ",".join(spec.attacks),
        "format": spec.format,
    }


def write_sweep(path: str, rows: Sequence[SweepRow], config: Dict[str, str], fmt: str = "csv") -> None:
    """Write a sweep table in fmt "csv" or "json", its configuration in the header."""
    _check_format(fmt)
    meta = {"tool": "cowsec", "version": __version__, **config}
    try:
        with open(path, "w", newline="") as fh:
            if fmt == "csv":
                for key, value in meta.items():
                    fh.write(f"# {key}={value}\n")
                writer = csv.writer(fh)
                writer.writerow(_COLUMNS)
                for row in rows:
                    writer.writerow([_fmt_value(getattr(row, c)) for c in _COLUMNS])
            else:
                fh.write(_json_text({"metadata": meta, "rows": [asdict(r) for r in rows]}))
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc


def _finite_or_none(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(v) for v in value]
    return value


def _json_text(payload: object) -> str:
    """Indented JSON with a trailing newline; NaN and +-inf (not JSON, RFC 8259) become null."""
    return json.dumps(_finite_or_none(payload), indent=2, allow_nan=False) + "\n"


def _row_from_strings(record: Dict[str, str]) -> SweepRow:
    kwargs: Dict[str, object] = {}
    for column in _COLUMNS:
        raw = record[column]
        kwargs[column] = raw == "true" if column == "fully_insecure" else float(raw)
    return SweepRow(**kwargs)  # type: ignore[arg-type]


def read_sweep_csv(path: str) -> Tuple[Dict[str, str], List[SweepRow]]:
    """Read back a CSV sweep table; inverse of write_sweep for fmt='csv'."""
    header: Dict[str, str] = {}
    try:
        with open(path, newline="") as fh:
            data_lines = []
            for line in fh:
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    header[key.strip()] = value
                else:
                    data_lines.append(line)
    except OSError as exc:
        raise OSError(f"cannot read sweep table from {path}: {exc}") from exc
    rows = [_row_from_strings(rec) for rec in csv.DictReader(data_lines)]
    return header, rows


def read_sweep_json(path: str) -> Tuple[Dict[str, str], List[SweepRow]]:
    """Read back a JSON sweep table; inverse of write_sweep for fmt='json' (null reads as NaN)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read sweep table from {path}: {exc}") from exc
    rows = [
        SweepRow(**{k: math.nan if v is None else v for k, v in record.items()})
        for record in payload["rows"]
    ]
    return payload["metadata"], rows


# ---------------------------------------------------------------------------
# Monte Carlo validation

# Minimum expected count in both binomial tails for the normal z-score to
# be trusted; below this a check is reported as low-power, not failed.
_MIN_EXPECTED_COUNT = 10.0
_Z_LIMIT = 4.0


@dataclass(frozen=True)
class CheckResult:
    """One empirical-vs-analytic comparison."""

    name: str
    observed: float
    expected: float
    stderr: float
    z: float
    status: str  # "pass" | "fail" | "low_power"


@dataclass(frozen=True)
class ValidationReport:
    """Cross-validation of the simulator against the closed-form rates."""

    config: Dict[str, object]
    plan: Dict[str, float]
    checks: Tuple[CheckResult, ...]
    distortion: DistortionReport

    @property
    def passed(self) -> bool:
        """True when no check failed; low-power checks do not count as failures."""
        return all(c.status != "fail" for c in self.checks)

    @property
    def verdict(self) -> str:
        """One-line summary: the failed checks, a lack of power, or a pass."""
        failed = [c.name for c in self.checks if c.status == "fail"]
        if failed:
            return f"FAILED: {', '.join(failed)}"
        if not any(c.status == "pass" for c in self.checks):
            return "no check had the power to pass: all low_power, nothing was tested"
        return "all checks passed"

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "tool": {"name": "cowsec", "version": __version__},
            "config": self.config,
            "plan": self.plan,
            "checks": [asdict(c) for c in self.checks],
            "distortion": {
                "rows": [asdict(r) for r in self.distortion.rows],
                "flagged": [
                    f"{r.pulse_class}/{r.pattern}" for r in self.distortion.flagged_rows()
                ],
            },
            "passed": self.passed,
        }


def _make_check(name: str, count: int, n_eff: int, expected: float) -> CheckResult:
    observed = count / n_eff if n_eff else math.nan
    stderr = _binomial_se(expected, n_eff)
    low_power = n_eff * min(expected, 1.0 - expected) < _MIN_EXPECTED_COUNT
    z = (observed - expected) / stderr if stderr > 0 else math.nan
    if low_power:
        status = "low_power"
    else:
        status = "pass" if abs(z) <= _Z_LIMIT else "fail"
    return CheckResult(
        name=name, observed=observed, expected=expected, stderr=stderr, z=z, status=status
    )


def run_montecarlo_validation(
    params: ProtocolParams, length_km: float, n_pulses: int, seed: int
) -> ValidationReport:
    """Simulate the link at Eve's optimal plan and compare every rate to theory.

    Checks Bob's information-state click rate against the loss-budget
    balance, Eve's conclusive rate, the realised blocked fraction and the
    empirical information proxy (share of Bob's sifted bits Eve knows),
    each at the 4-sigma level, plus the unattacked baseline rates. The
    decoy-distortion report is attached. Deterministic for fixed inputs.
    """
    plan = active_plan(params, length_km, optimal_mu_e(params, length_km))
    i_ae = active_eve_info(plan)
    point = channel_point(params, length_km)
    p_bob = -math.expm1(-point.mu_b)

    attacked = simulate_active_attack(params, length_km, plan, n_pulses, seed)
    baseline_seed = derive_stream_seed(seed, _BASELINE_STREAM)
    baseline = simulate_no_attack(params, length_km, n_pulses, baseline_seed)
    distortion = decoy_distortion(params, length_km, plan, n_pulses, seed)

    base_info = baseline.info
    att_info = attacked.info
    checks = [
        _make_check("no_attack_info_click_rate", base_info.bob_click, base_info.sent, p_bob),
        _make_check(
            "attack_bob_info_click_rate", att_info.bob_click, att_info.sent, p_bob
        ),
        _make_check(
            "attack_eve_conclusive_info_rate",
            att_info.eve_conclusive,
            att_info.sent,
            plan.p_conc_inf,
        ),
        _make_check(
            "attack_blocked_fraction", attacked.blocked_total, n_pulses, plan.block_fraction
        ),
        _make_check(
            "attack_i_ae_proxy", att_info.eve_conclusive_bob_click, att_info.bob_click, i_ae
        ),
    ]
    if params.decoy_fraction > 0:
        checks.insert(
            1,
            _make_check(
                "no_attack_decoy_double_rate",
                baseline.decoy.bob_double_click,
                baseline.decoy.sent,
                p_bob * p_bob,
            ),
        )

    config = {**asdict(params), "length_km": length_km, "n_pulses": n_pulses, "seed": seed}
    plan_dict: Dict[str, float] = {
        "mu_e": plan.mu_e,
        "mu_b_prime": plan.mu_b_prime,
        "block_fraction": plan.block_fraction,
        "p_conc_inf": plan.p_conc_inf,
        "p_conc_cont": plan.p_conc_cont,
        "p_conc_total": plan.p_conc_total,
        "i_ae": i_ae,
    }
    return ValidationReport(
        config=config, plan=plan_dict, checks=tuple(checks), distortion=distortion
    )
