"""Pulse-level simulation of the COW link with ideal threshold detectors.

Only click/no-click statistics matter for this protocol, and a coherent
state of intensity mu is vacuum with probability exp(-mu), so each
detector slot is an exact Bernoulli(1 - exp(-mu)) draw rather than an
approximation. The simulator cross-validates the analytic attack
formulas and exposes the detection-pattern distortion that active
blocking imprints on the decoy statistics.

Randomness is counter-based: every uniform is SplitMix64(seed, pulse
index, draw slot), so a pulse's outcome depends only on the seed and its
index. Serial runs, chunked runs and arbitrary parallel partitions of
the index range therefore produce bit-identical tallies.

Both streams run through one chunk kernel: it builds the counter base of
a chunk once and draws its slots one at a time. It skips Eve's draws when
her click probability is zero and the block draw when nothing is blocked
(the unattacked stream skips both); a uniform in [0, 1) is never below
zero, so skipping changes no bit. Each pulse's outcome is packed into one
code (class, Eve conclusive, blocked, delivered early and late clicks),
and one bincount per chunk fills all eighteen counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .attacks import ActiveAttackPlan, _exceeds_budget
from .core import ProtocolParams, channel_point

__all__ = [
    "PulseClass",
    "ClassTally",
    "TrialStats",
    "PatternRow",
    "DistortionReport",
    "InfeasibleBlockingError",
    "blocking_probability",
    "derive_stream_seed",
    "simulate_no_attack",
    "simulate_active_attack",
    "detection_pattern_probabilities",
    "decoy_distortion",
]

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood's SplittableRandom finalizer).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Fixed draw-slot layout per pulse; the stride leaves two spare slots.
_DRAWS_PER_PULSE = 8
_SLOT_CLASS = 0
_SLOT_EVE_EARLY = 1
_SLOT_EVE_LATE = 2
_SLOT_BLOCK = 3
_SLOT_BOB_EARLY = 4
_SLOT_BOB_LATE = 5

_CHUNK = 1 << 20

# Stream tag for the unattacked baseline run of decoy_distortion and of the
# validation harness.
_BASELINE_STREAM = 1


class PulseClass(IntEnum):
    """The three pulse kinds Alice emits."""

    BIT0 = 0  # pulse in the early slot
    BIT1 = 1  # pulse in the late slot
    DECOY = 2  # pulse in both slots


class InfeasibleBlockingError(RuntimeError):
    """The plan asks Eve to block more pulses than she finds inconclusive."""


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (arrays wrap silently, scalars warn)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_stream_seed(seed: int, stream: int) -> int:
    """Derive an unrelated 64-bit seed for an auxiliary simulation stream.

    The nonlinear finalizer keeps the derived stream's counter sequence
    from aliasing the parent's (a plain additive offset would).
    """
    return int(_mix(np.array([(seed + (stream + 1) * _GOLDEN) & _MASK64], np.uint64))[0])


def _uniforms(base: np.ndarray, slot: int) -> np.ndarray:
    """Unit uniforms of one draw slot; base is the chunk's slot-0 counter."""
    z = _mix(base + np.uint64((slot * _GOLDEN) & _MASK64))
    # Top 53 bits give a uniform double in [0, 1).
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0**-53


def blocking_probability(plan: ActiveAttackPlan) -> float:
    """Per-inconclusive-pulse blocking probability realising the plan's budget.

    Eve blocks only pulses that were inconclusive for her, i.i.d. with
    probability beta = b / (1 - p_conc_total), decoys included: she
    cannot tell a blocked decoy from a blocked information pulse without
    revealing herself. The expected blocked share of all sent pulses is
    then exactly the plan's block_fraction. Clipped at one; feasibility
    against the realised inconclusive fraction is checked by the
    simulator.
    """
    if plan.block_fraction == 0.0:
        return 0.0
    return min(1.0, plan.block_fraction / (1.0 - plan.p_conc_total))


@dataclass
class ClassTally:
    """Counts for one pulse class."""

    sent: int = 0
    eve_conclusive: int = 0
    blocked: int = 0
    bob_single_click: int = 0
    bob_double_click: int = 0
    # Joint count backing the empirical estimate of Eve's information:
    # pulses on which both Eve was conclusive and Bob registered a click.
    eve_conclusive_bob_click: int = 0

    def __add__(self, other: "ClassTally") -> "ClassTally":
        return ClassTally(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(ClassTally))
        )

    @property
    def bob_click(self) -> int:
        return self.bob_single_click + self.bob_double_click

    @property
    def bob_no_click(self) -> int:
        return self.sent - self.bob_click


def _binomial_se(p: float, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a rate p over n trials; NaN when n is 0."""
    return math.sqrt(p * (1.0 - p) / n) if n else math.nan


def rate_with_error(count: int, total: int) -> Tuple[float, float]:
    """Empirical rate and its binomial standard error."""
    if total <= 0:
        return math.nan, math.nan
    p = count / total
    return p, _binomial_se(p, total)


@dataclass
class TrialStats:
    """Tallies of one simulated run, mergeable across disjoint pulse ranges."""

    n_pulses: int
    seed: int
    bit0: ClassTally = field(default_factory=ClassTally)
    bit1: ClassTally = field(default_factory=ClassTally)
    decoy: ClassTally = field(default_factory=ClassTally)

    def __add__(self, other: "TrialStats") -> "TrialStats":
        if self.seed != other.seed:
            raise ValueError("cannot merge runs with different seeds")
        return TrialStats(
            n_pulses=self.n_pulses + other.n_pulses,
            seed=self.seed,
            bit0=self.bit0 + other.bit0,
            bit1=self.bit1 + other.bit1,
            decoy=self.decoy + other.decoy,
        )

    def classes(self) -> Iterator[Tuple[str, ClassTally]]:
        yield "bit0", self.bit0
        yield "bit1", self.bit1
        yield "decoy", self.decoy

    @property
    def info(self) -> ClassTally:
        """Combined tally of the two information classes."""
        return self.bit0 + self.bit1

    @property
    def blocked_total(self) -> int:
        return self.bit0.blocked + self.bit1.blocked + self.decoy.blocked

    def rates(self) -> Dict[str, Tuple[float, float]]:
        """Headline rates with standard errors."""
        info = self.info
        out = {
            "info_bob_click": rate_with_error(info.bob_click, info.sent),
            "info_eve_conclusive": rate_with_error(info.eve_conclusive, info.sent),
            "blocked_fraction": rate_with_error(self.blocked_total, self.n_pulses),
            "decoy_double_click": rate_with_error(self.decoy.bob_double_click, self.decoy.sent),
            "i_ae_proxy": rate_with_error(info.eve_conclusive_bob_click, info.bob_click),
        }
        return out


def _pulse_outcomes(
    f: float, p_bob: float, p_eve: float, beta: float, seed: int, start: int, count: int
) -> Tuple[np.ndarray, ...]:
    """Class, Eve conclusive, blocked, and Bob's raw early and late clicks per pulse.

    Covers pulses [start, start+count). Classes have probabilities
    ((1-f)/2, (1-f)/2, f); information pulses occupy one slot, decoys both.
    Each occupied slot clicks for Eve with p_eve and for Bob with p_bob;
    Eve blocks inconclusive pulses with probability beta, and blocking
    suppresses Bob's raw clicks only later. Eve's and Bob's arms use
    disjoint draw slots, so the beam splitter's two outputs are independent
    by construction, as they are physically for coherent states.
    """
    # Counter of (pulse, slot): seed + (DRAWS_PER_PULSE*pulse + 1 + slot)*GOLDEN mod 2**64.
    idx = np.arange(start, start + count, dtype=np.uint64)
    base = (idx * np.uint64(_DRAWS_PER_PULSE) + np.uint64(1)) * np.uint64(_GOLDEN)
    base += np.uint64(seed & _MASK64)
    half_info = 0.5 * (1.0 - f)
    u = _uniforms(base, _SLOT_CLASS)
    # BIT0 below (1-f)/2, BIT1 below 1-f, DECOY above.
    cls = (u >= half_info).view(np.uint8) + (u >= 2.0 * half_info).view(np.uint8)
    early = cls != PulseClass.BIT1
    late = cls != PulseClass.BIT0

    eve = np.zeros(count, dtype=bool)
    if p_eve > 0.0:
        eve |= early & (_uniforms(base, _SLOT_EVE_EARLY) < p_eve)
        eve |= late & (_uniforms(base, _SLOT_EVE_LATE) < p_eve)
    blocked = np.zeros(count, dtype=bool)
    if beta > 0.0:
        blocked |= ~eve & (_uniforms(base, _SLOT_BLOCK) < beta)
    early &= _uniforms(base, _SLOT_BOB_EARLY) < p_bob
    late &= _uniforms(base, _SLOT_BOB_LATE) < p_bob
    return cls, eve, blocked, early, late


def _tally_matrix() -> np.ndarray:
    """ClassTally field increments (columns, in field order) of each 4-bit outcome code."""
    eve, blocked, early, late = (np.arange(16) >> shift & 1 for shift in (3, 2, 1, 0))
    sent = np.ones(16, dtype=eve.dtype)
    return np.stack([sent, eve, blocked, early ^ late, early & late, eve & (early | late)], 1)


_TALLY = _tally_matrix()


def _simulate(
    f: float, p_bob: float, p_eve: float, beta: float, n_pulses: int, seed: int, first_pulse: int
) -> TrialStats:
    """Run the chunk kernel over n_pulses pulses and tally them per class."""
    counts = np.zeros((3, 16), dtype=np.int64)
    end = first_pulse + n_pulses
    for start in range(first_pulse, end, _CHUNK):
        cls, eve, blocked, early, late = _pulse_outcomes(
            f, p_bob, p_eve, beta, seed, start, min(_CHUNK, end - start)
        )
        early &= ~blocked
        late &= ~blocked
        code = cls << 4
        for shift, bit in ((3, eve), (2, blocked), (1, early), (0, late)):
            code |= bit.view(np.uint8) << shift
        counts += np.bincount(code, minlength=48).reshape(3, 16)
    bit0, bit1, decoy = (ClassTally(*map(int, row)) for row in counts @ _TALLY)
    return TrialStats(n_pulses=n_pulses, seed=seed & _MASK64, bit0=bit0, bit1=bit1, decoy=decoy)


def simulate_no_attack(
    params: ProtocolParams,
    length_km: float,
    n_pulses: int,
    seed: int,
    first_pulse: int = 0,
) -> TrialStats:
    """Simulate the plain lossy link: every pulse attenuated to mu_b.

    Information pulses populate one of Bob's two slots, decoys both; the
    slots click independently.
    """
    if n_pulses < 1:
        raise ValueError(f"need at least one pulse, got {n_pulses}")
    p_click = -math.expm1(-channel_point(params, length_km).mu_b)
    return _simulate(params.decoy_fraction, p_click, 0.0, 0.0, n_pulses, seed, first_pulse)


def _check_plan(params: ProtocolParams, length_km: float, plan: ActiveAttackPlan) -> None:
    point = channel_point(params, length_km)
    if _exceeds_budget(plan.mu_e, point.mu_e_max):
        raise ValueError(
            f"plan diverts {plan.mu_e}, above the loss budget "
            f"{point.mu_e_max} at {length_km} km"
        )
    if abs(plan.mu_b_prime - (params.mu - plan.mu_e)) > 1e-9:
        raise ValueError("plan's forwarded intensity does not match mu - mu_e")


def simulate_active_attack(
    params: ProtocolParams,
    length_km: float,
    plan: ActiveAttackPlan,
    n_pulses: int,
    seed: int,
    first_pulse: int = 0,
) -> TrialStats:
    """Simulate the active beam-splitting attack under a given plan.

    The beam splitter sends independent coherent pulses of intensity mu_e
    to Eve and mu_b_prime toward Bob. Eve measures both slots, blocks
    inconclusive pulses i.i.d. per blocking_probability, and forwards the
    rest losslessly.

    Raises InfeasibleBlockingError when the plan's blocked fraction
    exceeds the realised inconclusive fraction by more than five standard
    errors, i.e. the budget cannot be met by blocking inconclusive pulses
    alone.
    """
    if n_pulses < 1:
        raise ValueError(f"need at least one pulse, got {n_pulses}")
    _check_plan(params, length_km, plan)
    p_bob = -math.expm1(-plan.mu_b_prime)
    p_eve = -math.expm1(-plan.mu_e)
    beta = blocking_probability(plan)
    stats = _simulate(params.decoy_fraction, p_bob, p_eve, beta, n_pulses, seed, first_pulse)

    conclusive = stats.bit0.eve_conclusive + stats.bit1.eve_conclusive + stats.decoy.eve_conclusive
    p_inc, se_inc = rate_with_error(n_pulses - conclusive, n_pulses)
    if plan.block_fraction > p_inc + 5.0 * se_inc:
        raise InfeasibleBlockingError(
            f"plan blocks {plan.block_fraction:.6f} of pulses but only "
            f"{p_inc:.6f} (+/- {se_inc:.6f}) were inconclusive for Eve"
        )
    return stats


def detection_pattern_probabilities(
    params: ProtocolParams,
    length_km: float,
    plan: Optional[ActiveAttackPlan] = None,
) -> Dict[str, Dict[str, float]]:
    """Closed-form per-class probabilities of Bob's detection patterns.

    With plan=None these are the plain lossy-channel values at mu_b.
    Under a plan they account for the raised forward intensity and the
    per-class blocking rate of the inconclusive-only policy (a blocked
    pulse shows as no-click). Keyed [class][pattern] with patterns
    no_click / single / double.
    """
    point = channel_point(params, length_km)
    if plan is None:
        p = -math.expm1(-point.mu_b)
        block_info = block_decoy = 0.0
    else:
        _check_plan(params, length_km, plan)
        beta = blocking_probability(plan)
        p = -math.expm1(-plan.mu_b_prime)
        block_info = math.exp(-plan.mu_e) * beta
        block_decoy = math.exp(-2.0 * plan.mu_e) * beta

    info = {
        "no_click": block_info + (1.0 - block_info) * (1.0 - p),
        "single": (1.0 - block_info) * p,
        "double": 0.0,
    }
    decoy = {
        "no_click": block_decoy + (1.0 - block_decoy) * (1.0 - p) ** 2,
        "single": (1.0 - block_decoy) * 2.0 * p * (1.0 - p),
        "double": (1.0 - block_decoy) * p * p,
    }
    return {"bit0": info, "bit1": dict(info), "decoy": decoy}


@dataclass(frozen=True)
class PatternRow:
    """One (pulse class, detection pattern) cell of the distortion report."""

    pulse_class: str
    pattern: str
    expected_no_attack: float
    expected_attack: float
    observed_no_attack: float
    observed_no_attack_se: float
    observed_attack: float
    observed_attack_se: float
    z_observed: float
    flagged: bool


@dataclass(frozen=True)
class DistortionReport:
    """Bob-side detection-pattern statistics, attacked vs unattacked."""

    n_pulses: int
    seed: int
    rows: Tuple[PatternRow, ...]

    def flagged_rows(self) -> Tuple[PatternRow, ...]:
        return tuple(r for r in self.rows if r.flagged)

    @property
    def any_flagged(self) -> bool:
        return any(r.flagged for r in self.rows)


def _pattern_counts(tally: ClassTally) -> Dict[str, int]:
    return {
        "no_click": tally.bob_no_click,
        "single": tally.bob_single_click,
        "double": tally.bob_double_click,
    }


def decoy_distortion(
    params: ProtocolParams,
    length_km: float,
    plan: ActiveAttackPlan,
    n_pulses: int,
    seed: int,
) -> DistortionReport:
    """Compare Bob's detection-pattern statistics with and without the attack.

    Bob knows his expected lossy-channel statistics, so a cell is flagged
    when the model-predicted attacked probability differs from the
    unattacked one by more than five standard errors of the attacked
    estimate at this sample size, i.e. when the distortion is
    statistically detectable on Bob's side. The flag uses the analytic
    probabilities, making it deterministic up to class-count fluctuations;
    observed frequencies and their z-scores against the unattacked
    expectation are reported alongside. Plans that forward the expected
    intensity unblocked (mu_b_prime = mu_b, b = 0) distort nothing and
    never flag.
    """
    attacked = simulate_active_attack(params, length_km, plan, n_pulses, seed)
    baseline = simulate_no_attack(
        params, length_km, n_pulses, derive_stream_seed(seed, _BASELINE_STREAM)
    )
    expect_no = detection_pattern_probabilities(params, length_km)
    expect_att = detection_pattern_probabilities(params, length_km, plan)

    rows = []
    for name, att_tally in attacked.classes():
        if name == "decoy" and params.decoy_fraction == 0.0:
            continue
        base_tally = getattr(baseline, name)
        att_counts = _pattern_counts(att_tally)
        base_counts = _pattern_counts(base_tally)
        for pattern in ("no_click", "single", "double"):
            e_no = expect_no[name][pattern]
            e_att = expect_att[name][pattern]
            obs_att, se_att = rate_with_error(att_counts[pattern], att_tally.sent)
            obs_no, se_no = rate_with_error(base_counts[pattern], base_tally.sent)
            se_model = _binomial_se(e_att, att_tally.sent)
            flagged = se_model > 0 and abs(e_att - e_no) > 5.0 * se_model
            if se_model > 0:
                z = (obs_att - e_no) / se_model
            else:
                z = 0.0 if obs_att == e_no else math.inf
            rows.append(
                PatternRow(
                    pulse_class=name,
                    pattern=pattern,
                    expected_no_attack=e_no,
                    expected_attack=e_att,
                    observed_no_attack=obs_no,
                    observed_no_attack_se=se_no,
                    observed_attack=obs_att,
                    observed_attack_se=se_att,
                    z_observed=z,
                    flagged=flagged,
                )
            )
    return DistortionReport(n_pulses=n_pulses, seed=seed & _MASK64, rows=tuple(rows))
