"""Parameter sweeps, figure-ready tables and the Monte Carlo validation harness.

Tables are plain lists of SweepRow; writers emit CSV (comma separated,
floats at 17 significant digits so 64-bit values round-trip exactly) or
JSON (same rows as objects plus a metadata block). Each CSV row is written
from one line template derived from SweepRow's fields, ended by CRLF as
csv.writer ends lines; no cell ever needs quoting, so the csv module is
not needed. Outputs carry the fully resolved configuration in their
header and contain nothing time-dependent, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .attacks import _margin, active_attack, active_eve_info, bs_attack, optimal_source_intensity
from .core import ProtocolParams, _binomial_se, attenuate

if TYPE_CHECKING:  # the simulator pulls in numpy; only validation runs need it
    from .montecarlo import DistortionReport

__all__ = [
    "SweepRow",
    "CheckResult",
    "ValidationReport",
    "length_grid",
    "sweep_qber_curves",
    "sweep_optimal_intensity",
    "run_montecarlo_validation",
    "write_sweep",
]

_ATTACK_NAMES = ("bs", "active")
_FORMATS = ("csv", "json")

# Largest length grid a sweep builds; checked before anything is allocated.
_MAX_GRID_POINTS = 10**6


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt}")


class SweepRow(NamedTuple):
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


_COLUMNS = SweepRow._fields


def _csv_line(flag: str) -> str:
    """Line template of a CSV row: %.17g per float column, flag as the fully_insecure cell."""
    cells = (flag if column == "fully_insecure" else "%.17g" for column in _COLUMNS)
    return ",".join(cells) + "\r\n"  # csv.writer's line ending


# One template per flag value, each filled with the float columns in order.
_CSV_LINES = {False: _csv_line("false"), True: _csv_line("true")}
_FLOAT_CELLS = attrgetter(*(column for column in _COLUMNS if column != "fully_insecure"))


def length_grid(l_min: float, l_max: float, l_step: float) -> List[float]:
    """Inclusive arithmetic length grid; 0:150:1 yields 151 points.

    Raises ValueError for non-finite bounds, a step that is not positive,
    a negative start, an end below the start or a grid of more than
    _MAX_GRID_POINTS points, before building it.
    """
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
    return [l_min + k * l_step for k in range(int(math.floor(steps)) + 1)]


def _qber_row(params: ProtocolParams, length_km: float, attacks: Sequence[str]) -> SweepRow:
    qber_bs = bs_attack(params, length_km).qber_critical if "bs" in attacks else math.nan
    if "active" not in attacks:
        return SweepRow(params.mu, length_km, qber_bs)
    report = active_attack(params, length_km)
    plan = report.plan
    return SweepRow(
        params.mu,
        length_km,
        qber_bs,
        report.qber_critical,
        report.i_ae,
        plan.mu_e,
        plan.block_fraction,
        report.fully_insecure,
        _margin(attenuate(params.mu, params.delta, length_km), report.i_ae),
    )


def sweep_qber_curves(
    mu_list: Sequence[float],
    delta: float = 0.2,
    decoy_fraction: float = 0.1,
    l_min: float = 0.0,
    l_max: float = 150.0,
    l_step: float = 1.0,
    attacks: Sequence[str] = ("bs", "active"),
    output_path: Optional[str] = None,
    fmt: str = "csv",
) -> List[SweepRow]:
    """Critical-QBER curves over a length grid, one row per (mu, length).

    Every setting is checked before any row is computed. Rows come back
    sorted by (mu, length). When output_path is set the table is also
    written in fmt.
    """
    if not mu_list:
        raise ValueError("mu_list must not be empty")
    params_list = [ProtocolParams(mu, decoy_fraction, delta) for mu in mu_list]
    lengths = length_grid(l_min, l_max, l_step)
    if not attacks or any(a not in _ATTACK_NAMES for a in attacks):
        raise ValueError(f"attacks must be a non-empty subset of {_ATTACK_NAMES}")
    _check_format(fmt)
    rows = [_qber_row(params, l, attacks) for params in params_list for l in lengths]
    rows.sort(key=attrgetter("mu", "length_km"))
    if output_path is not None:
        config = {
            "command": "qber-curves",
            "mu": ",".join(f"{m:.17g}" for m in mu_list),
            **_channel_config(delta, decoy_fraction, (l_min, l_max, l_step)),
            "attacks": ",".join(attacks),
        }
        write_sweep(output_path, rows, config, fmt)
    return rows


def _optimal_row(delta: float, f: float, length_km: float) -> SweepRow:
    # _qber_row's margin runs the same operations as key_rate_margin, so it
    # equals optimal_source_intensity's margin bit for bit.
    mu = optimal_source_intensity(delta, length_km).mu
    return _qber_row(ProtocolParams(mu, f, delta), length_km, _ATTACK_NAMES)._replace(mu_opt=mu)


def sweep_optimal_intensity(
    delta: float,
    f: float,
    l_min: float,
    l_max: float,
    l_step: float,
    output_path: Optional[str] = None,
    fmt: str = "csv",
) -> List[SweepRow]:
    """Per length: the margin-optimal source intensity and both critical QBERs there."""
    _check_format(fmt)
    rows = [_optimal_row(delta, f, l) for l in length_grid(l_min, l_max, l_step)]
    if output_path is not None:
        config = {
            "command": "optimal-intensity",
            **_channel_config(delta, f, (l_min, l_max, l_step)),
        }
        write_sweep(output_path, rows, config, fmt)
    return rows


# ---------------------------------------------------------------------------
# serialisation

def _channel_config(delta: float, f: float, grid: Tuple[float, float, float]) -> Dict[str, str]:
    """The header keys both sweeps share, the channel and the length grid, at %.17g."""
    return {
        "delta": f"{delta:.17g}",
        "decoy_fraction": f"{f:.17g}",
        "length": ":".join(f"{x:.17g}" for x in grid),
    }


def write_sweep(path: str, rows: Sequence[SweepRow], config: Dict[str, str], fmt: str = "csv") -> None:
    """Write a sweep table in fmt "csv" or "json" under a header of tool, version, config, format."""
    _check_format(fmt)
    meta = {"tool": "cowsec", "version": __version__, **config, "format": fmt}
    try:
        with open(path, "w", newline="") as fh:
            if fmt == "csv":
                for key, value in meta.items():
                    fh.write(f"# {key}={value}\n")
                fh.write(",".join(_COLUMNS) + "\r\n")
                fh.writelines(_CSV_LINES[row.fully_insecure] % _FLOAT_CELLS(row) for row in rows)
            else:
                fh.write(_json_text({"metadata": meta, "rows": [r._asdict() for r in rows]}))
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc


def _finite_or_none(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _json_text(payload: object) -> str:
    """Indented JSON with a trailing newline; NaN and +-inf (not JSON, RFC 8259) become null."""
    return json.dumps(_finite_or_none(payload), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Monte Carlo validation

# Minimum expected count in both binomial tails for the normal z-score to
# be trusted, and minimum number of trials for the exact check of a rate
# the model puts at 0 or 1; below this a check is reported as low-power,
# not failed.
_MIN_EXPECTED_COUNT = 10.0
_Z_LIMIT = 4.0


class CheckResult(NamedTuple):
    """One empirical-vs-analytic comparison."""

    name: str
    observed: float
    expected: float
    stderr: float
    z: float
    status: str  # "pass" | "fail" | "low_power"


class ValidationReport(NamedTuple):
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
            "checks": [c._asdict() for c in self.checks],
            "distortion": {
                "rows": [r._asdict() for r in self.distortion.rows],
                "flagged": [
                    f"{r.pulse_class}/{r.pattern}" for r in self.distortion.flagged_rows()
                ],
            },
            "passed": self.passed,
        }


def _make_check(name: str, count: int, n_eff: int, expected: float) -> CheckResult:
    observed = count / n_eff if n_eff else math.nan
    stderr = _binomial_se(expected, n_eff)
    z = (observed - expected) / stderr if stderr > 0 else math.nan
    if expected in (0.0, 1.0):
        # The model makes the outcome certain, so the count is checked exactly.
        power, agrees = n_eff, count == n_eff * expected
    else:
        power, agrees = n_eff * min(expected, 1.0 - expected), abs(z) <= _Z_LIMIT
    if power < _MIN_EXPECTED_COUNT:
        status = "low_power"
    else:
        status = "pass" if agrees else "fail"
    return CheckResult(name, observed, expected, stderr, z, status)


def run_montecarlo_validation(
    params: ProtocolParams, length_km: float, n_pulses: int, seed: int
) -> ValidationReport:
    """Simulate the link at Eve's optimal plan and compare every rate to theory.

    Checks Bob's information-state click rate against the rate the plan
    delivers, (1 - b)(1 - exp(-mu_b_prime)), Eve's conclusive rate, the
    blocked share of information pulses against the plan's b, and the
    empirical information proxy (share of Bob's sifted bits Eve knows)
    against i_AE = p_conc_inf / (1 - b), each at the 4-sigma level, plus
    the unattacked baseline rates. The delivered click rate equals the
    lossy line's 1 - exp(-mu_b) wherever the plan balances the budget;
    beyond the fully-insecure length the capped plan cannot, and Bob sees
    fewer clicks than the lossy line would give. The plan, and so i_AE,
    is the attached decoy-distortion report's plan, and Bob's expected
    rates are its expected cells. Deterministic for fixed inputs.
    """
    from . import montecarlo

    attacked, baseline = montecarlo._stream_pair(params, length_km, n_pulses, seed)
    distortion = montecarlo.decoy_distortion(params, length_km, n_pulses, seed)
    plan = distortion.plan
    i_ae = active_eve_info(plan)
    cells = {(r.pulse_class, r.pattern): r for r in distortion.rows}
    info_single = cells["bit0", "single"]
    p_bob, p_bob_attacked = info_single.expected_no_attack, info_single.expected_attack

    base_info = baseline.info
    att_info = attacked.info
    checks = [
        _make_check("no_attack_info_click_rate", base_info.bob_click, base_info.sent, p_bob),
        _make_check(
            "attack_bob_info_click_rate", att_info.bob_click, att_info.sent, p_bob_attacked
        ),
        _make_check(
            "attack_eve_conclusive_info_rate",
            att_info.eve_conclusive,
            att_info.sent,
            plan.p_conc_inf,
        ),
        _make_check(
            "attack_blocked_fraction", att_info.blocked, att_info.sent, plan.block_fraction
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
                cells["decoy", "double"].expected_no_attack,
            ),
        )

    config = {**params._asdict(), "length_km": length_km, "n_pulses": n_pulses, "seed": seed}
    plan_dict = {**plan._asdict(), "i_ae": i_ae}
    return ValidationReport(config, plan_dict, tuple(checks), distortion)
