"""Pulse-level simulation of the COW link with ideal threshold detectors.

Only click/no-click statistics matter for this protocol, and a coherent
state of intensity mu is vacuum with probability exp(-mu), so each
detector slot is an exact Bernoulli(1 - exp(-mu)) draw rather than an
approximation. The simulator cross-validates the analytic attack
formulas and exposes the detection-pattern distortion that active
blocking imprints on the decoy statistics. Each entry point takes the
decoy fraction f, which no closed form reads, as a required argument
after the length. The attacked entry points take Eve's one free
parameter, the diverted intensity mu_e (None for her optimum), and run
the closed forms' plan active_plan(params, length_km, mu_e): Bob's slots
click with its p_forward_click, Eve's with its p_conc_inf, and she blocks
each inconclusive pulse with its p_block, so that a share b of
information pulses is blocked on average.

Randomness is counter-based: every draw is SplitMix64(seed, pulse
index, draw slot), so a pulse's outcome depends only on the seed and its
index. Every run covers pulses 0 to n_pulses - 1, so serial and chunked
runs produce bit-identical tallies.

Both streams run through one chunk kernel, whose buffers are made once
per run and sized so that each uint64 row stays in a core's L2 cache;
between chunks the counters advance by one wrapping add. A draw succeeds
when the uniform (z >> 11) * 2**-53 of its word z is below p, decided
without floats as z < ceil(p * 2**53) * 2**11. The class draw gives two
nested masks, bit0 inside information. Eve's draws are skipped when her
click probability is zero and the block draw when nothing is blocked (the
unattacked stream skips both); no draw is below zero, so skipping changes
no bit. Each counter is a count_nonzero among all, information and bit0
pulses, and the bit1 and decoy counts are differences of those.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .attacks import ActiveAttackPlan, active_plan
from .core import ProtocolParams, _binomial_se, channel_point

__all__ = [
    "ClassTally",
    "TrialStats",
    "PatternRow",
    "DistortionReport",
    "simulate_no_attack",
    "simulate_active_attack",
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

# 2^16 pulses make each uint64 array of a chunk 512 KiB, which stays in a
# 2 MiB L2 cache; at 2^20 the arrays are 8 MiB and fall out of it. On an
# AMD EPYC with 2 MiB L2 per core, both simulations of 2^20 pulses took
# 1.4x as long in one chunk as in chunks of 2^16. 2^15 timed the same as
# 2^16; 2^14, 2^17 and 2^18 were a few per cent slower.
_CHUNK = 1 << 16

# Slot-0 counters seed + (8 * idx + 1) * _GOLDEN mod 2^64 repeat after 2^61 pulses.
_PULSE_PERIOD = 1 << 61

# Bob's detection patterns, in the order of ClassTally.patterns.
_PATTERNS = ("no_click", "single", "double")


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; tmp, of z's shape, holds shifted words."""
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _baseline_seed(seed: int) -> int:
    """The unattacked baseline run's 64-bit seed, SplitMix64 of the counter seed + 2 * golden.

    The nonlinear finalizer keeps the baseline's counter sequence from
    aliasing the attacked run's (a plain additive offset would).
    """
    z = np.array([(seed + 2 * _GOLDEN) & _MASK64], np.uint64)
    return int(_mix(z, np.empty_like(z))[0])


def _words(base: np.ndarray, slot: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 words of one draw slot, written to out; base is the chunk's slot-0 counter."""
    return _mix(np.add(base, np.uint64((slot * _GOLDEN) & _MASK64), out=out), tmp)


def _below(z: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """Whether each word's unit uniform (z >> 11) * 2**-53 is below p, without floats, into out.

    For an integer k, k < p * 2**53 exactly when k < ceil(p * 2**53), and
    p * 2**53 is exact, so the test is z < ceil(p * 2**53) << 11. From
    p >= 1 on every uniform is below p.
    """
    if p >= 1.0:
        out.fill(True)
        return out
    return np.less(z, np.uint64(math.ceil(p * 2.0**53) << 11), out=out)


class ClassTally(NamedTuple):
    """Counts for one pulse class."""

    sent: int = 0
    eve_conclusive: int = 0
    blocked: int = 0
    bob_single_click: int = 0
    bob_double_click: int = 0
    # Joint count backing the empirical estimate of Eve's information:
    # pulses on which both Eve was conclusive and Bob registered a click.
    eve_conclusive_bob_click: int = 0

    def __add__(self, other: ClassTally) -> ClassTally:  # counts add; tuples would concatenate
        return ClassTally(*(a + b for a, b in zip(self, other)))

    @property
    def bob_click(self) -> int:
        return self.bob_single_click + self.bob_double_click

    @property
    def patterns(self) -> Tuple[int, int, int]:
        """Bob's (no_click, single, double) counts, _PATTERNS' order."""
        return self.sent - self.bob_click, self.bob_single_click, self.bob_double_click


def _rate_with_error(count: int, total: int) -> Tuple[float, float]:
    """Empirical rate and its binomial standard error, both NaN for an empty class (total 0).

    An empty class divides by NaN, and _binomial_se gives NaN for n = 0.
    """
    p = count / (total or math.nan)
    return p, _binomial_se(p, total)


class TrialStats(NamedTuple):
    """Tallies of one simulated run, per pulse class; their sent counts sum to the pulses run."""

    bit0: ClassTally = ClassTally()
    bit1: ClassTally = ClassTally()
    decoy: ClassTally = ClassTally()

    @property
    def info(self) -> ClassTally:
        """Combined tally of the two information classes."""
        return self.bit0 + self.bit1


# Cache-line size. The kernel's speed depends on where its word rows start:
# on a 2-core Intel Xeon, simulating 2^18 pulses attacked plus baseline took
# 12.9-13.5 ms with them at 16 or 48 mod 64 bytes and 11.6-12.0 ms at 0 or
# 32 (best of 9), whatever the offset of the mask rows.
_ALIGN = 64


def _aligned(
    alloc: Callable[..., np.ndarray], shape: Tuple[int, int], dtype: type
) -> np.ndarray:
    """alloc's array of shape and dtype, its data starting on a cache-line boundary."""
    nbytes = shape[0] * shape[1] * np.dtype(dtype).itemsize
    raw = alloc(nbytes + _ALIGN, dtype=np.uint8)
    offset = -raw.ctypes.data % _ALIGN
    return raw[offset:offset + nbytes].view(dtype).reshape(shape)


def _buffers(seed: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Slot-0 counters of pulses [0, count) atop 2 word rows, and 8 zeroed bool rows.

    Both arrays start on a cache-line boundary, and so does every row when
    count is a multiple of 64 (as _CHUNK is).
    """
    words = _aligned(np.empty, (3, count), np.uint64)
    base = np.arange(count, dtype=np.uint64)
    base = np.multiply(base, np.uint64(_DRAWS_PER_PULSE), out=words[0])
    base += np.uint64(1)
    base *= np.uint64(_GOLDEN)
    base += np.uint64(seed & _MASK64)
    return words, _aligned(np.zeros, (8, count), bool)


def _pulse_outcomes(
    f: float, p_bob: float, p_eve: float, beta: float, words: np.ndarray, masks: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Information, bit0, Eve conclusive, blocked, and Bob's raw early and late clicks per pulse.

    Covers the pulses whose counters words[0] holds, in rows of masks (both
    from _buffers). Classes have probabilities ((1-f)/2, (1-f)/2, f);
    information pulses occupy one slot, decoys both. Each occupied slot
    clicks for Eve with p_eve and for Bob with p_bob; Eve blocks
    inconclusive pulses with probability beta, and blocking suppresses
    Bob's raw clicks only later. Eve's and Bob's arms use disjoint draw
    slots, so the beam splitter's outputs are independent, as they are
    physically for coherent states.
    """
    base, z, tmp = words
    info, bit0, eve, blocked, early, late, hit = masks[:7]
    _words(base, _SLOT_CLASS, z, tmp)
    _below(z, 1.0 - f, info)
    _below(z, 0.5 * (1.0 - f), bit0)  # a subset of info
    np.equal(info, bit0, out=early)  # bit0 or decoy
    np.logical_not(bit0, out=late)  # bit1 or decoy
    if p_eve > 0.0:  # else eve stays all False
        np.logical_and(early, _below(_words(base, _SLOT_EVE_EARLY, z, tmp), p_eve, hit), out=eve)
        _below(_words(base, _SLOT_EVE_LATE, z, tmp), p_eve, hit)
        eve |= np.logical_and(late, hit, out=hit)
    if beta > 0.0:  # else blocked stays all False
        np.logical_not(eve, out=blocked)
        blocked &= _below(_words(base, _SLOT_BLOCK, z, tmp), beta, hit)
    early &= _below(_words(base, _SLOT_BOB_EARLY, z, tmp), p_bob, hit)
    late &= _below(_words(base, _SLOT_BOB_LATE, z, tmp), p_bob, hit)
    return info, bit0, eve, blocked, early, late


def _count(
    mask: np.ndarray, info: np.ndarray, bit0: np.ndarray, out: np.ndarray
) -> Tuple[int, int, int]:
    """Set entries of mask among all, information and bit0 pulses; out is scratch."""
    on_info = np.count_nonzero(np.logical_and(mask, info, out=out))
    return np.count_nonzero(mask), on_info, np.count_nonzero(np.logical_and(out, bit0, out=out))


def _simulate(
    f: float, p_bob: float, p_eve: float, beta: float, n_pulses: int, seed: int
) -> TrialStats:
    """Run the chunk kernel over pulses 0 to n_pulses - 1 and tally them per class."""
    if not 0.0 <= f < 1.0:
        raise ValueError(f"decoy fraction must lie in [0, 1), got {f}")
    if n_pulses < 1:
        raise ValueError(f"need at least one pulse, got n_pulses = {n_pulses}")
    if n_pulses > _PULSE_PERIOD:
        raise ValueError(f"need at most 2**61 pulses, got n_pulses = {n_pulses}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    size = min(_CHUNK, n_pulses)
    # once per run: fresh arrays per chunk page-fault in a process whose allocator is cold
    words, masks = _buffers(seed, size)
    step = np.uint64((size * _DRAWS_PER_PULSE * _GOLDEN) & _MASK64)
    counts = np.zeros((6, 3), dtype=np.int64)  # ClassTally fields among all, info and bit0 pulses
    for start in range(0, n_pulses, size):
        n = min(size, n_pulses - start)  # the last chunk uses the first n columns
        info, bit0, eve, blocked, early, late = _pulse_outcomes(
            f, p_bob, p_eve, beta, words[:, :n], masks[:, :n]
        )
        clicked, scratch = masks[6:, :n]
        counts[0] += (n, np.count_nonzero(info), np.count_nonzero(bit0))
        if beta > 0.0:
            counts[2] += _count(blocked, info, bit0, scratch)
            early &= np.logical_not(blocked, out=clicked)
            late &= clicked
        counts[3] += _count(np.not_equal(early, late, out=clicked), info, bit0, scratch)
        counts[4] += _count(np.logical_and(early, late, out=clicked), info, bit0, scratch)
        if p_eve > 0.0:
            counts[1] += _count(eve, info, bit0, scratch)
            clicked = np.logical_and(eve, np.logical_or(early, late, out=clicked), out=clicked)
            counts[5] += _count(clicked, info, bit0, scratch)
        words[0] += step  # exact: the counters wrap mod 2**64
    tallies = (counts[:, 2], counts[:, 1] - counts[:, 2], counts[:, 0] - counts[:, 1])
    return TrialStats(*(ClassTally(*map(int, column)) for column in tallies))


def simulate_no_attack(
    params: ProtocolParams,
    length_km: float,
    decoy_fraction: float,
    n_pulses: int,
    seed: int,
) -> TrialStats:
    """Simulate the plain lossy link: every pulse attenuated to mu_b.

    A pulse is a decoy with probability decoy_fraction, in [0, 1).
    Information pulses populate one of Bob's two slots, decoys both; the
    slots click independently.
    """
    p_click = -math.expm1(-channel_point(params, length_km).mu_b)
    return _simulate(decoy_fraction, p_click, 0.0, 0.0, n_pulses, seed)


def simulate_active_attack(
    params: ProtocolParams,
    length_km: float,
    decoy_fraction: float,
    n_pulses: int,
    seed: int,
    *,
    mu_e: Optional[float] = None,
) -> TrialStats:
    """Simulate the active beam-splitting attack at diverted intensity mu_e.

    Runs active_plan(params, length_km, mu_e), Eve's optimum when mu_e is
    None. The beam splitter sends independent coherent pulses of intensity
    mu_e to Eve and mu_b_prime toward Bob. Eve measures both slots, each
    one conclusive with the plan's p_conc_inf, blocks inconclusive pulses
    i.i.d. with its p_block, decoys included, since she cannot tell an
    inconclusive decoy from an inconclusive information pulse, and
    forwards the rest losslessly, where each occupied slot clicks for Bob
    with its p_forward_click.
    """
    plan = active_plan(params, length_km, mu_e)
    return _simulate(
        decoy_fraction, plan.p_forward_click, plan.p_conc_inf, plan.p_block, n_pulses, seed
    )


def _stream_pair(
    params: ProtocolParams,
    length_km: float,
    decoy_fraction: float,
    n_pulses: int,
    seed: int,
    *,
    mu_e: Optional[float] = None,
) -> Tuple[TrialStats, TrialStats]:
    """The attacked run at seed and the unattacked baseline at _baseline_seed(seed)."""
    attacked = simulate_active_attack(params, length_km, decoy_fraction, n_pulses, seed, mu_e=mu_e)
    baseline = simulate_no_attack(params, length_km, decoy_fraction, n_pulses, _baseline_seed(seed))
    return attacked, baseline


def _pattern_probabilities(
    p: float, block_info: float, block_decoy: float
) -> Dict[str, Tuple[float, float, float]]:
    """Closed-form per-class probabilities of Bob's detection patterns.

    p is Bob's click probability per occupied slot, and block_info and
    block_decoy the shares of information pulses and decoys blocked before
    him (a blocked pulse shows as no-click). Keyed by class, each a
    (no_click, single, double) tuple in _PATTERNS' order.
    """
    info = (block_info + (1.0 - block_info) * (1.0 - p), (1.0 - block_info) * p, 0.0)
    decoy = (
        block_decoy + (1.0 - block_decoy) * (1.0 - p) ** 2,
        (1.0 - block_decoy) * 2.0 * p * (1.0 - p),
        (1.0 - block_decoy) * p * p,
    )
    return {"bit0": info, "bit1": info, "decoy": decoy}


class PatternRow(NamedTuple):
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


class DistortionReport(NamedTuple):
    """Bob-side detection-pattern statistics, attacked vs unattacked."""

    rows: Tuple[PatternRow, ...]
    plan: ActiveAttackPlan  # the attack whose expected cells the rows hold

    def flagged_rows(self) -> Tuple[PatternRow, ...]:
        return tuple(r for r in self.rows if r.flagged)


def decoy_distortion(
    params: ProtocolParams,
    length_km: float,
    decoy_fraction: float,
    n_pulses: int,
    seed: int,
    *,
    mu_e: Optional[float] = None,
) -> DistortionReport:
    """Compare Bob's detection-pattern statistics with and without the attack at mu_e.

    Bob knows his expected lossy-channel statistics, so a cell is flagged
    when the model-predicted attacked probability differs from the
    unattacked one by more than five standard errors of the attacked
    estimate at this sample size, i.e. when the distortion is
    statistically detectable on Bob's side. The flag uses the analytic
    probabilities, making it deterministic up to class-count fluctuations;
    observed frequencies and their z-scores against the unattacked
    expectation are reported alongside. A class that no pulse fell in
    reports them as NaN, by _rate_with_error's rule and _binomial_se's NaN
    standard error for n = 0. A run without decoys (decoy_fraction 0) has
    no decoy rows: this is the one place that decides it, and
    run_montecarlo_validation reads it from the rows. The attack is
    active_plan(params, length_km, mu_e), Eve's optimum when mu_e is None;
    at the full budget she forwards the expected intensity unblocked
    (p_forward_click = p_lossy_click, p_block = 0), which distorts nothing
    and never flags. The report carries that plan, from which its expected
    cells come: the unattacked ones from p_lossy_click, the attacked ones
    from p_forward_click, b and p_block.
    """
    attacked, baseline = _stream_pair(params, length_km, decoy_fraction, n_pulses, seed, mu_e=mu_e)
    plan = active_plan(params, length_km, mu_e)
    expect_no = _pattern_probabilities(plan.p_lossy_click, 0.0, 0.0)
    # Eve blocks inconclusive pulses at p_block and finds decoys inconclusive
    # less often: b on information pulses, exp(-2 mu_e) * p_block on decoys.
    expect_att = _pattern_probabilities(
        plan.p_forward_click, plan.block_fraction, math.exp(-2.0 * plan.mu_e) * plan.p_block
    )

    rows = []
    for name, att_tally, base_tally in zip(TrialStats._fields, attacked, baseline):
        if name == "decoy" and decoy_fraction == 0.0:
            continue
        cells = zip(
            _PATTERNS, expect_no[name], expect_att[name], att_tally.patterns, base_tally.patterns
        )
        for pattern, e_no, e_att, att_count, base_count in cells:
            obs_att, se_att = _rate_with_error(att_count, att_tally.sent)
            obs_no, se_no = _rate_with_error(base_count, base_tally.sent)
            se_model = _binomial_se(e_att, att_tally.sent)
            flagged = se_model > 0 and abs(e_att - e_no) > 5.0 * se_model
            if se_model == 0:  # the model makes the pattern certain
                z = 0.0 if obs_att == e_no else math.inf
            else:  # NaN for an empty class, whose se_model is NaN
                z = (obs_att - e_no) / se_model
            rows.append(
                PatternRow(name, pattern, e_no, e_att, obs_no, se_no, obs_att, se_att, z, flagged)
            )
    return DistortionReport(tuple(rows), plan)
