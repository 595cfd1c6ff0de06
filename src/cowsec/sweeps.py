"""Parameter sweeps, figure-ready tables and the Monte Carlo validation harness.

Tables are plain lists of SweepRow; writers emit CSV (comma separated,
floats at 17 significant digits so 64-bit values round-trip exactly) or
JSON (same rows as objects plus a metadata block). Each CSV row is written
from one line template derived from SweepRow's fields, ended by CRLF as
csv.writer ends lines; no cell ever needs quoting, so the csv module is
not needed. The columns whose values repeat down a table (mu, length_km,
mu_e_opt) go through a cell cache that lives for one table, so each
distinct nonzero value is formatted once. The sweeps compute rows over
a grid from length_grid and write nothing; write_sweep writes them under
the configuration header its caller builds. Outputs contain nothing
time-dependent, so identical inputs give byte-identical files. Every
file, sweep table or validation report, is written by one writer,
_write, without newline translation.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import lt
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .attacks import active_attack, bs_attack, optimal_source_intensity
from .core import ProtocolParams, _binomial_se

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

_FORMATS = ("csv", "json")

# Largest length grid length_grid builds; checked before anything is allocated.
_MAX_GRID_POINTS = 10**6


class SweepRow(NamedTuple):
    """One (source intensity, length) point of a sweep table.

    Every row carries both attacks' analyses; only mu_opt has a default,
    NaN, as only the optimal-intensity sweep sets it.
    """

    mu: float
    length_km: float
    qber_bs: float
    qber_active: float
    i_ae_active: float
    mu_e_opt: float
    block_fraction: float
    fully_insecure: bool
    margin: float
    mu_opt: float = math.nan


_COLUMNS = SweepRow._fields


# Float columns whose values repeat down a table: one value of mu per block
# of rows, the length grid once per mu, and Eve's intensity across lengths.
_CACHED_COLUMNS = ("mu", "length_km", "mu_e_opt")
_FLAGS = {False: "false", True: "true"}
# Cells of the flag and of the cached columns arrive as text, the rest as floats.
_CSV_LINE = ",".join(
    "%s" if column == "fully_insecure" or column in _CACHED_COLUMNS else "%.17g"
    for column in _COLUMNS
) + "\r\n"  # csv.writer's line ending


class _CellCache(dict):
    """Text of float cells by value, each formatted at %.17g on first use.

    Zeros are formatted every time and never stored: 0.0 == -0.0 as keys,
    but they print as 0 and -0.
    """

    def __missing__(self, value: float) -> str:
        text = "%.17g" % value
        if value != 0.0:
            self[value] = text
        return text


def _csv_lines(rows: Sequence[SweepRow]) -> Iterable[str]:
    """The CSV lines of rows, filled column by column; cached columns share one cell cache."""
    cells = _CellCache()
    texts = {column: cells.__getitem__ for column in _CACHED_COLUMNS}
    texts["fully_insecure"] = _FLAGS.__getitem__
    columns = [
        map(texts[name], column) if name in texts else column
        for name, column in zip(_COLUMNS, zip(*rows))
    ]
    return map(_CSV_LINE.__mod__, zip(*columns))


def length_grid(l_min: float, l_max: float, l_step: float) -> List[float]:
    """Inclusive arithmetic length grid; 0:150:1 yields 151 points.

    Raises ValueError for non-finite bounds, a step that is not positive,
    a negative start, an end below the start or a grid of more than
    _MAX_GRID_POINTS points, before building it, and for a grid that
    repeats a length, where the step is below the spacing of floats at
    its lengths (1e16:1e16+4:1 would give 1e16 twice), after.
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
    lengths = [l_min + k * l_step for k in range(int(math.floor(steps)) + 1)]
    if not all(map(lt, lengths, lengths[1:])):
        raise ValueError(f"{grid} repeats a length: its step is finer than floats resolve there")
    return lengths


def _qber_row(params: ProtocolParams, length_km: float) -> SweepRow:
    report = active_attack(params, length_km)
    plan = report.plan
    return SweepRow(
        params.mu,
        length_km,
        bs_attack(params, length_km).qber_critical,
        report.qber_critical,
        report.i_ae,
        plan.mu_e,
        plan.block_fraction,
        report.fully_insecure,
        plan.margin,
    )


def sweep_qber_curves(
    mu_list: Sequence[float], lengths: Sequence[float], delta: float = 0.2
) -> List[SweepRow]:
    """Critical-QBER curves over lengths, one row per (mu, length).

    lengths is a grid that length_grid built. Every row compares the
    passive and the active beam-splitting attack. The intensities and
    delta are checked before any row is computed; a repeated intensity is
    rejected. Rows come in ascending mu, each over lengths in grid order.
    """
    if not mu_list:
        raise ValueError("mu_list must not be empty")
    params_list = sorted(ProtocolParams(mu, delta=delta) for mu in mu_list)
    for earlier, params in zip(params_list, params_list[1:]):
        if params.mu == earlier.mu:  # equal numbers are one intensity (1 and 1.0)
            raise ValueError(f"source intensity {params.mu!r} is repeated")
    return [_qber_row(params, l) for params in params_list for l in lengths]


def _optimal_row(delta: float, length_km: float) -> SweepRow:
    # _qber_row's margin is the plan's, which key_rate_margin returns too, so
    # it equals optimal_source_intensity's margin bit for bit.
    mu = optimal_source_intensity(delta, length_km).mu
    return _qber_row(ProtocolParams(mu, delta=delta), length_km)._replace(mu_opt=mu)


def sweep_optimal_intensity(delta: float, lengths: Sequence[float]) -> List[SweepRow]:
    """Per length of lengths: the margin-optimal source intensity and both critical QBERs there."""
    return [_optimal_row(delta, l) for l in lengths]


# ---------------------------------------------------------------------------
# serialisation

def _write(path: str, chunks: Iterable[str], what: str) -> None:
    """Write chunks to path without newline translation; every output file goes through here."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def write_sweep(path: str, rows: Sequence[SweepRow], config: Dict[str, str], fmt: str = "csv") -> None:
    """Write a sweep table in fmt "csv" or "json" under a header of tool, version, config, format.

    CSV cells of mu, length_km and mu_e_opt come from a cache that lives for
    this call, so each distinct nonzero value in those columns is formatted
    once per table. The file goes through _write, the writer of the
    validation report too.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt}")
    meta = {"tool": "cowsec", "version": __version__, **config, "format": fmt}
    if fmt == "json":
        chunks = [_json_text({"metadata": meta, "rows": [r._asdict() for r in rows]})]
    else:
        header = [f"# {key}={value}\n" for key, value in meta.items()]
        header.append(",".join(_COLUMNS) + "\r\n")
        chunks = chain(header, _csv_lines(rows))
    _write(path, chunks, "sweep table")


def _write_report(report: ValidationReport, path: Optional[str]) -> None:
    """Write a validation report's JSON to path, or to stdout when path is None."""
    text = _json_text(report.to_jsonable())
    if path is None:
        print(text, end="")
    else:
        _write(path, [text], "report")


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
            "plan": {k: v for k, v in self.distortion.plan._asdict().items() if k != "margin"},
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
    params: ProtocolParams, length_km: float, decoy_fraction: float, n_pulses: int, seed: int
) -> ValidationReport:
    """Simulate the link at Eve's optimal plan and compare every rate to theory.

    A pulse is a decoy with probability decoy_fraction, in [0, 1); the
    report's config lists it between mu and delta.

    Checks Bob's information-state click rate against the rate the plan
    delivers, (1 - b) * p_forward_click, Eve's conclusive rate, the
    blocked share of information pulses against the plan's b, and the
    empirical information proxy (share of Bob's sifted bits Eve knows)
    against the plan's i_ae, each at the 4-sigma level, plus the unattacked
    baseline rates. The delivered click rate equals the lossy line's
    C = p_lossy_click wherever the plan balances the budget; beyond the
    fully-insecure length the capped plan cannot, and Bob sees fewer clicks
    than the lossy line would give. The plan is the attached
    decoy-distortion report's plan, and Bob's expected rates are its
    expected cells. Deterministic for fixed inputs.
    """
    from . import montecarlo

    attacked, baseline = montecarlo._stream_pair(params, length_km, decoy_fraction, n_pulses, seed)
    distortion = montecarlo.decoy_distortion(params, length_km, decoy_fraction, n_pulses, seed)
    plan = distortion.plan
    cells = {(r.pulse_class, r.pattern): r for r in distortion.rows}
    single = cells["bit0", "single"]
    double = cells.get(("decoy", "double"))  # None for a run without decoys
    p_double = double.expected_no_attack if double else None
    base, att, decoy = baseline.info, attacked.info, baseline.decoy
    # (name, count, trials, expected) in report order; a rate of None (no decoys) is not checked
    rows = (
        ("no_attack_info_click_rate", base.bob_click, base.sent, single.expected_no_attack),
        ("no_attack_decoy_double_rate", decoy.bob_double_click, decoy.sent, p_double),
        ("attack_bob_info_click_rate", att.bob_click, att.sent, single.expected_attack),
        ("attack_eve_conclusive_info_rate", att.eve_conclusive, att.sent, plan.p_conc_inf),
        ("attack_blocked_fraction", att.blocked, att.sent, plan.block_fraction),
        ("attack_i_ae_proxy", att.eve_conclusive_bob_click, att.bob_click, plan.i_ae),
    )
    checks = tuple(_make_check(*row) for row in rows if row[3] is not None)

    config = {
        "mu": params.mu,
        "decoy_fraction": decoy_fraction,
        "delta": params.delta,
        "length_km": length_km,
        "n_pulses": n_pulses,
        "seed": seed,
    }
    return ValidationReport(config, checks, distortion)
