"""Simulator cross-validation against the closed-form rates.

Binomial comparisons run at 4 sigma with one million pulses. Targets for
the attacked runs are the closed forms of the inconclusive-only blocking
policy (per-class blocking rates differ from the overall budget once
decoys are in the blockable pool); the idealised budget identities are
additionally asserted at the moderate working point where the two
coincide within tolerance.
"""

import math
import random

import pytest

from cowsec.attacks import active_plan, optimal_mu_e
from cowsec.core import ProtocolParams, channel_point
from cowsec.montecarlo import (
    ClassTally,
    InfeasibleBlockingError,
    TrialStats,
    _pulse_outcomes,
    blocking_probability,
    decoy_distortion,
    derive_stream_seed,
    detection_pattern_probabilities,
    simulate_active_attack,
    simulate_no_attack,
)

N = 1_000_000
SEED = 42


def params(mu, f=0.1, delta=0.2):
    return ProtocolParams(mu=mu, decoy_fraction=f, delta=delta)


def assert_within_4_sigma(count, total, expected, label=""):
    se = math.sqrt(expected * (1.0 - expected) / total)
    z = (count / total - expected) / se if se > 0 else 0.0
    assert abs(z) <= 4.0, f"{label}: observed {count/total:.6f}, expected {expected:.6f}, z={z:.2f}"


def policy_expectations(p: ProtocolParams, length_km: float, plan):
    """Closed-form per-pulse rates implied by the blocking policy."""
    beta = blocking_probability(plan)
    survive_info = 1.0 - math.exp(-plan.mu_e) * beta
    p_fwd = -math.expm1(-plan.mu_b_prime)
    return {
        "info_block": math.exp(-plan.mu_e) * beta,
        "info_bob_click": survive_info * p_fwd,
        "i_ae_proxy": plan.p_conc_inf / survive_info,
        "blocked_overall": (1.0 - plan.p_conc_total) * beta,
    }


# ---------------------------------------------------------------------------
# unattacked link


def test_no_attack_rates():
    p = params(0.2)
    point = channel_point(p, 20.0)
    p_click = -math.expm1(-point.mu_b)
    stats = simulate_no_attack(p, 20.0, N, SEED)
    info = stats.info
    assert_within_4_sigma(info.bob_click, info.sent, p_click, "info click")
    assert_within_4_sigma(
        stats.decoy.bob_double_click, stats.decoy.sent, p_click**2, "decoy double"
    )
    assert_within_4_sigma(
        stats.decoy.bob_single_click,
        stats.decoy.sent,
        2.0 * p_click * (1.0 - p_click),
        "decoy single",
    )
    # class mix
    assert_within_4_sigma(stats.decoy.sent, N, p.decoy_fraction, "decoy fraction")
    assert_within_4_sigma(stats.bit0.sent, N, 0.45, "bit0 fraction")
    # information states occupy one slot, they can never double-click
    assert info.bob_double_click == 0
    assert info.eve_conclusive == 0 and stats.blocked_total == 0


def test_no_attack_without_decoys():
    stats = simulate_no_attack(params(0.2, f=0.0), 20.0, 50_000, SEED)
    assert stats.decoy.sent == 0
    assert stats.bit0.sent + stats.bit1.sent == 50_000


# ---------------------------------------------------------------------------
# active attack on the standard grid


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("length", [5.0, 20.0, 40.0])
def test_active_attack_grid_rates(mu, length):
    p = params(mu)
    plan = active_plan(p, length, optimal_mu_e(p, length))
    stats = simulate_active_attack(p, length, plan, N, SEED)
    info = stats.info
    expect = policy_expectations(p, length, plan)
    patterns = detection_pattern_probabilities(p, length, plan)

    assert_within_4_sigma(info.eve_conclusive, info.sent, plan.p_conc_inf, "eve conclusive")
    assert_within_4_sigma(
        stats.decoy.eve_conclusive, stats.decoy.sent, plan.p_conc_cont, "eve conclusive decoy"
    )
    assert_within_4_sigma(stats.blocked_total, N, plan.block_fraction, "blocked budget")
    assert_within_4_sigma(info.bob_click, info.sent, expect["info_bob_click"], "bob info click")
    assert_within_4_sigma(
        info.eve_conclusive_bob_click, info.bob_click, expect["i_ae_proxy"], "i_ae proxy"
    )
    assert_within_4_sigma(
        stats.decoy.bob_double_click, stats.decoy.sent, patterns["decoy"]["double"], "decoy double"
    )
    # Eve never blocks her conclusive pulses
    for _, tally in stats.classes():
        assert tally.blocked <= tally.sent - tally.eve_conclusive
        assert tally.bob_single_click + tally.bob_double_click <= tally.sent


def test_active_attack_budget_identities_at_moderate_point():
    # at (mu=0.2, l=20) the class-blind policy and the idealised budget
    # agree within a fraction of a sigma, so the textbook identities hold
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    stats = simulate_active_attack(p, 20.0, plan, N, SEED)
    info = stats.info
    point = channel_point(p, 20.0)
    assert_within_4_sigma(info.bob_click, info.sent, -math.expm1(-point.mu_b), "budget click")
    assert_within_4_sigma(
        info.eve_conclusive_bob_click,
        info.bob_click,
        plan.p_conc_inf / (1.0 - plan.block_fraction),
        "i_ae balance",
    )


# ---------------------------------------------------------------------------
# determinism and partitioning


def test_simulations_are_deterministic():
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    a = simulate_active_attack(p, 20.0, plan, 200_000, SEED)
    b = simulate_active_attack(p, 20.0, plan, 200_000, SEED)
    assert a == b
    assert simulate_no_attack(p, 20.0, 200_000, SEED) == simulate_no_attack(p, 20.0, 200_000, SEED)


def test_partition_independence():
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    whole = simulate_active_attack(p, 20.0, plan, 300_000, SEED)
    parts = [
        simulate_active_attack(p, 20.0, plan, n, SEED, first_pulse=start)
        for start, n in ((0, 77_777), (77_777, 150_000), (227_777, 72_223))
    ]
    merged = parts[0] + parts[1] + parts[2]
    assert merged == whole

    whole_base = simulate_no_attack(p, 20.0, 300_000, SEED)
    half1 = simulate_no_attack(p, 20.0, 150_001, SEED)
    half2 = simulate_no_attack(p, 20.0, 149_999, SEED, first_pulse=150_001)
    assert half1 + half2 == whole_base



# Exact counts recorded before the chunk kernel was rewritten: any change
# to the counter layout, the draw order or the tally shows up here. 2^20 + 3
# pulses from index 5 cross a chunk boundary; seed 2^64 - 1 wraps the counter.
GOLDEN_N = 2**20 + 3
GOLDEN_SEED = 2**64 - 1


def _golden(n, bit0, bit1, decoy):
    return TrialStats(
        n_pulses=n,
        seed=GOLDEN_SEED,
        bit0=ClassTally(*bit0),
        bit1=ClassTally(*bit1),
        decoy=ClassTally(*decoy),
    )


def test_golden_counts_no_attack():
    stats = simulate_no_attack(params(0.2), 20.0, GOLDEN_N, GOLDEN_SEED, first_pulse=5)
    assert stats == _golden(
        GOLDEN_N,
        (472309, 0, 0, 36558, 0, 0),
        (471743, 0, 0, 36073, 0, 0),
        (104527, 0, 0, 14737, 600, 0),
    )


@pytest.mark.parametrize(
    "length, block_fraction, counts",
    [
        (
            5.0,
            0.0,
            (
                (472309, 18992, 0, 69955, 0, 2794),
                (471743, 19030, 0, 69304, 0, 2727),
                (104527, 8246, 0, 26200, 2221, 2236),
            ),
        ),
        (
            20.0,
            0.1957539873555243,
            (
                (472309, 44755, 93832, 36548, 0, 4375),
                (471743, 44890, 93124, 36101, 0, 4201),
                (104527, 19012, 18694, 14696, 778, 3417),
            ),
        ),
    ],
)
def test_golden_counts_active_attack(length, block_fraction, counts):
    p = params(0.2)
    plan = active_plan(p, length, optimal_mu_e(p, length))
    assert plan.block_fraction == block_fraction
    stats = simulate_active_attack(p, length, plan, GOLDEN_N, GOLDEN_SEED, first_pulse=5)
    assert stats == _golden(GOLDEN_N, *counts)


def test_merge_rejects_mismatched_seeds():
    p = params(0.2)
    a = simulate_no_attack(p, 20.0, 1000, 1)
    b = simulate_no_attack(p, 20.0, 1000, 2)
    with pytest.raises(ValueError):
        a + b


def test_derived_stream_seed_is_distinct_and_stable():
    assert derive_stream_seed(SEED, 1) == derive_stream_seed(SEED, 1)
    assert derive_stream_seed(SEED, 1) != SEED
    assert derive_stream_seed(SEED, 1) != derive_stream_seed(SEED, 2)
    assert 0 <= derive_stream_seed(SEED, 1) < 2**64


def splitmix64_stream_seed(seed, stream):
    # SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) on Python ints: the
    # counter seed + (stream+1)*golden, then the finalizer
    mask = (1 << 64) - 1
    x = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@pytest.mark.parametrize("stream", [0, 1, 5])
def test_derived_stream_seed_matches_splitmix64_reference(stream):
    rng = random.Random(2014)
    seeds = [0, -1, 2**64 - 1, 2**70] + [rng.randrange(-(2**80), 2**80) for _ in range(1000)]
    for seed in seeds:
        assert derive_stream_seed(seed, stream) == splitmix64_stream_seed(seed, stream), seed


def test_beam_splitter_arms_are_independent():
    # chi-square independence of Eve's and Bob's raw click indicators on
    # information pulses, 1% level (critical value 6.635 at one dof)
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    cls, eve, _, bob_raw_early, bob_raw_late = _pulse_outcomes(
        p.decoy_fraction,
        -math.expm1(-plan.mu_b_prime),
        -math.expm1(-plan.mu_e),
        blocking_probability(plan),
        SEED,
        0,
        N,
    )
    is_info = cls != 2
    eve = eve[is_info]
    bob_raw = (bob_raw_early | bob_raw_late)[is_info]
    n = eve.size
    a = int((eve & bob_raw).sum())
    b = int((eve & ~bob_raw).sum())
    c = int((~eve & bob_raw).sum())
    d = int((~eve & ~bob_raw).sum())
    chi2 = n * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
    assert chi2 < 6.635, f"chi2={chi2:.2f}"


# ---------------------------------------------------------------------------
# infeasible blocking


def test_infeasible_blocking_raises_with_decoys():
    # a capped plan with decoys in the pool needs beta > 1: the budget
    # exceeds what inconclusive-only blocking can deliver
    p = params(0.5)
    plan = active_plan(p, 60.0, optimal_mu_e(p, 60.0))
    assert plan.block_fraction > 1.0 - plan.p_conc_total
    with pytest.raises(InfeasibleBlockingError):
        simulate_active_attack(p, 60.0, plan, 200_000, SEED)


def test_capped_plan_without_decoys_blocks_everything_inconclusive():
    p = params(0.5, f=0.0)
    plan = active_plan(p, 60.0, optimal_mu_e(p, 60.0))
    assert blocking_probability(plan) == 1.0
    stats = simulate_active_attack(p, 60.0, plan, 200_000, SEED)
    info = stats.info
    assert stats.blocked_total == 200_000 - info.eve_conclusive
    # every delivered sifted bit is known to Eve
    assert info.eve_conclusive_bob_click == info.bob_click


# ---------------------------------------------------------------------------
# detection-pattern probabilities and the distortion report


def test_pattern_probabilities_no_attack_formulas():
    p = params(0.2)
    point = channel_point(p, 20.0)
    x = math.exp(-point.mu_b)
    pat = detection_pattern_probabilities(p, 20.0)
    assert pat["bit0"]["no_click"] == pytest.approx(x, abs=1e-15)
    assert pat["bit0"]["single"] == pytest.approx(1.0 - x, abs=1e-15)
    assert pat["bit0"]["double"] == 0.0
    assert pat["decoy"]["no_click"] == pytest.approx(x * x, abs=1e-15)
    assert pat["decoy"]["single"] == pytest.approx(2.0 * x * (1.0 - x), abs=1e-15)
    assert pat["decoy"]["double"] == pytest.approx((1.0 - x) ** 2, abs=1e-15)
    for cls in pat.values():
        assert sum(cls.values()) == pytest.approx(1.0, abs=1e-14)


def test_pattern_probabilities_attack_formulas():
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    beta = blocking_probability(plan)
    q = -math.expm1(-plan.mu_b_prime)
    pat = detection_pattern_probabilities(p, 20.0, plan)
    survive_decoy = 1.0 - math.exp(-2.0 * plan.mu_e) * beta
    assert pat["decoy"]["double"] == pytest.approx(survive_decoy * q * q, abs=1e-15)
    survive_info = 1.0 - math.exp(-plan.mu_e) * beta
    assert pat["bit0"]["single"] == pytest.approx(survive_info * q, abs=1e-15)
    for cls in pat.values():
        assert sum(cls.values()) == pytest.approx(1.0, abs=1e-14)


def test_distortion_flags_decoy_double_for_half_intensity_plan():
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    assert plan.mu_e == 0.1  # mu/2 branch, forwarded intensity above mu_b
    report = decoy_distortion(p, 20.0, plan, N, SEED)
    flagged = {(r.pulse_class, r.pattern) for r in report.flagged_rows()}
    assert ("decoy", "double") in flagged
    # empirical attack frequencies agree with the policy closed forms
    for row in report.rows:
        n_class = round(report.n_pulses * (0.1 if row.pulse_class == "decoy" else 0.45))
        se = math.sqrt(max(row.expected_attack * (1 - row.expected_attack), 1e-12) / n_class)
        assert abs(row.observed_attack - row.expected_attack) <= 4.0 * se, row


def test_distortion_silent_for_full_budget_plan():
    p = params(0.2)
    point = channel_point(p, 20.0)
    plan = active_plan(p, 20.0, point.mu_e_max)
    report = decoy_distortion(p, 20.0, plan, N, SEED)
    assert not report.any_flagged
    # nothing distorted beyond statistical noise
    assert max(abs(r.z_observed) for r in report.rows) < 5.0
    for row in report.rows:
        assert row.expected_attack == pytest.approx(row.expected_no_attack, abs=1e-15)


def test_distortion_report_without_decoys_has_no_decoy_rows():
    p = params(0.2, f=0.0)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    report = decoy_distortion(p, 20.0, plan, 100_000, SEED)
    assert {r.pulse_class for r in report.rows} == {"bit0", "bit1"}


# ---------------------------------------------------------------------------
# tally bookkeeping


def test_rates_are_probabilities_with_errors():
    p = params(0.2)
    plan = active_plan(p, 20.0, optimal_mu_e(p, 20.0))
    stats = simulate_active_attack(p, 20.0, plan, 100_000, SEED)
    for name, (value, err) in stats.rates().items():
        assert 0.0 <= value <= 1.0, name
        assert err >= 0.0, name


def test_trial_stats_merge_adds_counts():
    a = TrialStats(n_pulses=10, seed=1)
    a.bit0.sent = 4
    b = TrialStats(n_pulses=5, seed=1)
    b.bit0.sent = 2
    merged = a + b
    assert merged.n_pulses == 15 and merged.bit0.sent == 6
