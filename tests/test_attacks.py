"""Attack analyses against frozen oracle values and grid scans.

Frozen constants were computed with mpmath at 50 decimal digits by
composing the formulas quoted next to them; grid oracles are built
inline with numpy and never reuse the optimisers under test.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cowsec.attacks import (
    FULLY_INSECURE_TOL,
    MU_SEARCH_MAX,
    ActiveAttackPlan,
    active_attack,
    active_eve_info,
    active_plan,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
    optimal_source_intensity,
)
from cowsec.core import (
    ProtocolParams,
    attenuate,
    binary_entropy,
    binary_entropy_inverse,
    channel_point,
)

# mpmath, 50 dps: 10*log10(2)/0.2
CRITICAL_LENGTH_02 = 15.051499783199059761
# mpmath, 50 dps: h2((1 + exp(-0.5))/2), the long-channel Holevo limit at mu = 0.5
BS_LIMIT_IAE_05 = 0.71534916671072173444
# mpmath, 50 dps: h2inv(1 - BS_LIMIT_IAE_05)
BS_LIMIT_QBER_05 = 0.049589550727293943362
# mpmath, 50 dps, at (mu=0.5, delta=0.2, l=20, mu_e=0.25):
#   mu_b = 0.5*10**-0.4; b = 1 - (1-exp(-mu_b))/(1-exp(-0.25))
PLAN_05_20_MU_B = 0.19905358527674862539
PLAN_05_20_PCONC_INF = 0.22119921692859513175
PLAN_05_20_BLOCK = 0.18402052319840042477
# mpmath, 50 dps: p_conc_inf / (1 - b) and h2inv(1 - i_ae) for the same plan
ACTIVE_05_20_IAE = 0.27108428976134453685
ACTIVE_05_20_QBER = 0.20352164241742224842
# mpmath, 50 dps: (1 - exp(-mu_b)) * (1 - i_ae)
MARGIN_05_20 = 0.13156492772849489624
# mpmath, 50 dps: mu_b* = -ln(1 - (1-exp(-0.25))**2); l = 50*log10(0.5/mu_b*)
FULLY_INSECURE_05 = 49.927741122150199432


def params(mu, f=0.1, delta=0.2):
    return ProtocolParams(mu=mu, decoy_fraction=f, delta=delta)


def balanced_block_fraction(p, length, plan):
    # the uncapped budget balance 1 - (1 - exp(-mu_B)) / (1 - exp(-mu_B')), in active_plan's operations
    mu_b = channel_point(p, length).mu_b
    return 1.0 - (-math.expm1(-mu_b)) / (-math.expm1(-plan.mu_b_prime))


def grid_eve_info(mu, delta, length_km, n=10_000):
    """Vectorised active-attack information over a diverted-intensity grid."""
    point = channel_point(params(mu, delta=delta), length_km)
    mu_e = np.linspace(0.0, point.mu_e_max, n)
    p_inf = -np.expm1(-mu_e)
    p_bob = -np.expm1(-point.mu_b)
    p_fwd = -np.expm1(-(mu - mu_e))
    raw_b = 1.0 - p_bob / p_fwd
    b = np.clip(raw_b, 0.0, 1.0 - p_inf)
    return mu_e, np.where(p_inf > 0.0, np.minimum(1.0, p_inf / (1.0 - b)), 0.0)


# ---------------------------------------------------------------------------
# passive beam splitting


def test_bs_attack_zero_length():
    report = bs_attack(params(0.7), 0.0)
    assert report.i_ae == 0.0
    assert report.qber_critical == 0.5
    assert not report.fully_insecure
    assert report.plan is None


def test_bs_attack_long_channel_limit():
    report = bs_attack(params(0.5), 10_000.0)
    assert report.i_ae == pytest.approx(BS_LIMIT_IAE_05, abs=1e-12)
    assert report.qber_critical == pytest.approx(BS_LIMIT_QBER_05, abs=1e-12)
    assert not report.fully_insecure


def test_bs_attack_qber_floor_positive_at_large_length():
    # the critical QBER saturates at a strictly positive floor
    floor = binary_entropy_inverse(1.0 - binary_entropy(0.5 * (1.0 + math.exp(-0.2))))
    assert floor > 0.0
    for l in (100.0, 150.0, 400.0):
        assert bs_attack(params(0.2), l).qber_critical >= floor - 1e-9


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5])
def test_bs_attack_qber_non_increasing_and_bounded(mu):
    floor = binary_entropy_inverse(1.0 - binary_entropy(0.5 * (1.0 + math.exp(-mu))))
    qbers = [bs_attack(params(mu), l).qber_critical for l in np.linspace(0.0, 150.0, 151)]
    assert all(b <= a + 1e-12 for a, b in zip(qbers, qbers[1:]))
    assert all(q >= floor - 1e-9 for q in qbers)


# ---------------------------------------------------------------------------
# active-attack plans


def test_active_plan_frozen_values():
    plan = active_plan(params(0.5), 20.0, 0.25)
    assert plan.mu_b_prime == 0.25
    assert plan.p_conc_inf == pytest.approx(PLAN_05_20_PCONC_INF, abs=1e-15)
    assert plan.p_conc_cont == pytest.approx(-math.expm1(-0.5), abs=1e-15)
    assert plan.block_fraction == pytest.approx(PLAN_05_20_BLOCK, abs=1e-14)
    assert plan.block_fraction == balanced_block_fraction(params(0.5), 20.0, plan)


def test_active_plan_decoy_conclusive_matches_two_term_form():
    # 2*e^-x*(1-e^-x) + (1-e^-x)^2 == 1 - e^-2x
    budget = channel_point(params(0.5), 20.0).mu_e_max
    for mu_e in np.linspace(0.0, budget, 50):
        plan = active_plan(params(0.5), 20.0, mu_e)
        x = math.exp(-mu_e)
        two_term = 2.0 * x * (1.0 - x) + (1.0 - x) ** 2
        assert plan.p_conc_cont == pytest.approx(two_term, abs=1e-15)


def test_active_plan_total_conclusive_is_decoy_weighted():
    plan = active_plan(params(0.5, f=0.25), 20.0, 0.2)
    expected = 0.75 * plan.p_conc_inf + 0.25 * plan.p_conc_cont
    assert plan.p_conc_total == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("length", [5.0, 10.0, 40.0, 500.0, 800.0, 1000.0, 20000.0])
def test_active_plan_full_budget_means_no_blocking(length):
    # diverting the whole loss budget leaves Bob's intensity unchanged, also
    # where mu - mu_e_max loses its digits to rounding (all of them from 783 km)
    p = params(0.5)
    point = channel_point(p, length)
    plan = active_plan(p, length, point.mu_e_max)
    assert plan.mu_b_prime == point.mu_b
    assert plan.block_fraction == 0.0


def test_active_plan_zero_diversion():
    p = params(0.4)
    plan = active_plan(p, 25.0, 0.0)
    assert plan.p_conc_inf == 0.0
    mu_b = attenuate(0.4, 0.2, 25.0)
    # (1-b)(1-e^-mu) = 1-e^-mu_b
    expected_b = 1.0 - math.expm1(-mu_b) / math.expm1(-0.4)
    assert plan.block_fraction == pytest.approx(expected_b, abs=1e-14)


def test_active_plan_rejects_overdrawn_budget():
    p = params(0.5)
    point = channel_point(p, 20.0)
    with pytest.raises(ValueError):
        active_plan(p, 20.0, point.mu_e_max + 1e-6)
    with pytest.raises(ValueError):
        active_plan(p, 20.0, -0.01)
    with pytest.raises(ValueError):
        active_plan(p, 20.0, math.nan)
    # the rounding allowance is relative to mu: 5e-16 is 50,000x this source
    with pytest.raises(ValueError):
        active_plan(ProtocolParams(1e-20), 40.0, 5e-16)


def test_active_plan_cap_reached_on_long_channel():
    plan = active_plan(params(0.5), 60.0, 0.25)
    assert plan.block_fraction == pytest.approx(1.0 - plan.p_conc_inf, abs=1e-15)
    assert balanced_block_fraction(params(0.5), 60.0, plan) > plan.block_fraction


# ---------------------------------------------------------------------------
# Eve's information


def test_eve_info_no_blocking_equals_conclusive_probability():
    plan = active_plan(params(0.5), 10.0, channel_point(params(0.5), 10.0).mu_e_max)
    assert plan.block_fraction == 0.0
    assert active_eve_info(plan) == plan.p_conc_inf


def test_eve_info_at_cap_is_unity():
    plan = active_plan(params(0.5), 60.0, 0.25)
    assert active_eve_info(plan) == 1.0


def test_eve_info_frozen_value():
    plan = active_plan(params(0.5), 20.0, 0.25)
    assert active_eve_info(plan) == pytest.approx(ACTIVE_05_20_IAE, abs=1e-14)


def test_eve_info_monotone_in_block_fraction():
    base = active_plan(params(0.5), 20.0, 0.25)
    infos = []
    for b in np.linspace(0.0, 1.0 - base.p_conc_inf, 60):
        plan = ActiveAttackPlan(
            mu_e=base.mu_e,
            mu_b_prime=base.mu_b_prime,
            block_fraction=b,
            p_conc_inf=base.p_conc_inf,
            p_conc_cont=base.p_conc_cont,
            p_conc_total=base.p_conc_total,
        )
        infos.append(active_eve_info(plan))
    assert all(i <= 1.0 for i in infos)
    assert all(b >= a for a, b in zip(infos, infos[1:]))
    assert infos[-1] == 1.0


# Just below the blocking cap b < fl(1 - p), the plain quotient p / (1 - b)
# must stay a probability without any clamp.
@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    p_conc_inf=st.one_of(
        st.floats(min_value=1e-300, max_value=1e-12), st.floats(min_value=1e-12, max_value=1.0)
    ),
    ulps=st.integers(min_value=1, max_value=5),
)
@example(p_conc_inf=1e-300, ulps=1)
@example(p_conc_inf=2.0**-54, ulps=1)
@example(p_conc_inf=0.5 + 2.0**-53, ulps=1)
def test_eve_info_just_below_the_cap_is_a_probability(p_conc_inf, ulps):
    b = 1.0 - p_conc_inf
    for _ in range(ulps):
        b = math.nextafter(b, -math.inf)
    assume(b >= 0.0)
    plan = ActiveAttackPlan(0.1, 0.1, b, p_conc_inf, p_conc_inf, p_conc_inf)
    assert 0.0 <= active_eve_info(plan) <= 1.0


def test_information_balance_identity_on_random_uncapped_plans():
    # p_conc_inf/(1-b) equals (1-e^-(mu-mu_e))(1-e^-mu_e)/(1-e^-mu_b)
    # for every plan below the blocking cap
    rng = np.random.default_rng(1223334444)
    checked = 0
    while checked < 10_000:
        mu = rng.uniform(0.05, 1.5)
        delta = rng.uniform(0.1, 0.4)
        length = rng.uniform(0.1, 120.0)
        p = params(mu, delta=delta)
        point = channel_point(p, length)
        mu_e = rng.uniform(1e-6, point.mu_e_max) if point.mu_e_max > 1e-6 else point.mu_e_max
        plan = active_plan(p, length, mu_e)
        if balanced_block_fraction(p, length, plan) > plan.block_fraction:  # capped, no identity
            continue
        lhs = plan.p_conc_inf / (1.0 - plan.block_fraction)
        rhs = (
            -math.expm1(-(mu - plan.mu_e))
            * -math.expm1(-plan.mu_e)
            / -math.expm1(-point.mu_b)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# Eve's optimal diverted intensity


def test_optimal_mu_e_branches():
    p = params(0.5)
    short = channel_point(p, 10.0)
    assert active_plan(p, 10.0).mu_e == short.mu_e_max  # below the critical length
    assert active_plan(p, 40.0).mu_e == 0.25  # above it


def test_optimal_mu_e_at_critical_length_both_branches_agree():
    l_crit = critical_length(0.2)
    for mu in (0.1, 0.35, 0.8, 1.6):
        point = channel_point(params(mu), l_crit)
        assert point.mu_e_max == pytest.approx(mu / 2.0, abs=1e-9)
        assert active_plan(params(mu), l_crit).mu_e == pytest.approx(mu / 2.0, abs=1e-9)


def test_optimal_mu_e_matches_grid_argmax():
    rng = np.random.default_rng(987654321)
    for _ in range(100):
        mu = rng.uniform(0.05, 1.2)
        delta = rng.uniform(0.1, 0.4)
        length = rng.uniform(0.1, 120.0)
        mu_star = active_plan(params(mu, delta=delta), length).mu_e
        grid, info = grid_eve_info(mu, delta, length)
        step = grid[1] - grid[0]
        if info.max() >= 1.0 - 1e-12:
            # fully insecure plateau: the maximiser is not unique, the
            # closed form must sit on the plateau
            plan = active_plan(params(mu, delta=delta), length, mu_star)
            assert active_eve_info(plan) >= 1.0 - 1e-12
        else:
            assert abs(mu_star - grid[np.argmax(info)]) <= step


# ---------------------------------------------------------------------------
# critical length


def test_critical_length_frozen_value():
    assert critical_length(0.2) == pytest.approx(CRITICAL_LENGTH_02, rel=1e-15)


def test_critical_length_inverse_proportionality():
    assert critical_length(0.4) == pytest.approx(critical_length(0.2) / 2.0, rel=1e-14)


def test_critical_length_unit_normalising_delta():
    assert critical_length(10.0 * math.log10(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_critical_length_domain():
    with pytest.raises(ValueError):
        critical_length(0.0)


# ---------------------------------------------------------------------------
# combined active attack


def test_active_attack_zero_length():
    report = active_attack(params(0.3), 0.0)
    assert report.i_ae == 0.0
    assert report.qber_critical == 0.5
    assert not report.fully_insecure
    assert report.plan.mu_e == 0.0
    assert report.plan.block_fraction == 0.0


def test_active_attack_frozen_point():
    report = active_attack(params(0.5), 20.0)
    assert report.plan.mu_e == 0.25
    assert report.i_ae == pytest.approx(ACTIVE_05_20_IAE, abs=1e-14)
    assert report.qber_critical == pytest.approx(ACTIVE_05_20_QBER, abs=1e-12)


def test_active_attack_fully_insecure_beyond_threshold():
    report = active_attack(params(0.5), 60.0)
    assert report.fully_insecure
    assert report.i_ae == 1.0
    assert report.qber_critical == 0.0
    # cap reachability: Bob's expected rate fits inside Eve's conclusive stream
    mu_b = attenuate(0.5, 0.2, 60.0)
    assert -math.expm1(-mu_b) <= (-math.expm1(-0.25)) ** 2


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5])
def test_active_attack_qber_non_increasing(mu):
    qbers = [active_attack(params(mu), l).qber_critical for l in np.linspace(0.0, 150.0, 151)]
    assert all(b <= a + 1e-12 for a, b in zip(qbers, qbers[1:]))


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5])
def test_active_attack_eventually_beats_beam_splitting(mu):
    # the two critical-QBER curves cross before full insecurity
    p = params(mu)
    l_ins = fully_insecure_length(p)
    lengths = np.linspace(1.0, 2.0 * l_ins, 220)
    diffs = [
        active_attack(p, l).qber_critical - bs_attack(p, l).qber_critical for l in lengths
    ]
    assert diffs[0] > 0.0  # collective decoding wins on short channels
    assert any(d < 0.0 for d in diffs)  # blocking wins on long ones


# ---------------------------------------------------------------------------
# full-insecurity length


def test_fully_insecure_length_frozen_value():
    assert fully_insecure_length(params(0.5)) == pytest.approx(FULLY_INSECURE_05, abs=1e-9)


def bisect_insecure_length(p: ProtocolParams, lo=0.0, hi=400.0, tol=1e-9) -> float:
    assert not active_attack(p, lo).fully_insecure and active_attack(p, hi).fully_insecure
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if active_attack(p, mid).fully_insecure:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("mu,delta", [(0.5, 0.2), (0.2, 0.2), (0.1, 0.3), (1.0, 0.15)])
def test_fully_insecure_length_matches_bisection(mu, delta):
    p = params(mu, delta=delta)
    assert fully_insecure_length(p) == pytest.approx(bisect_insecure_length(p), abs=1e-6)


def test_fully_insecure_length_bracketing():
    p = params(0.5)
    l_star = fully_insecure_length(p)
    assert not active_attack(p, l_star - 1.0).fully_insecure
    assert active_attack(p, l_star + 1.0).fully_insecure


def test_fully_insecure_length_small_mu_asymptote():
    # mu_b* ~ mu^2/4 for small mu, so l ~ (10/delta)*log10(4/mu)
    mu = 1e-3
    approx = 10.0 / 0.2 * math.log10(4.0 / mu)
    assert fully_insecure_length(params(mu)) == pytest.approx(approx, rel=1e-2)


def mp_fully_insecure_length(mu: float, delta: float) -> mpmath.mpf:
    # mu_b = -ln(1 - p**2) with p = 1 - exp(-mu/2). For mu >= 1, 1 - p**2 is
    # written as e*(2 - e) with e = exp(-mu/2), which 60 digits carry up to
    # mu = 1e300; below mu of about 1e-59, e*(2 - e) rounds to 1 at 60 digits,
    # so small mu takes -log1p(-p**2) with p = -expm1(-mu/2) instead.
    with mpmath.workdps(60):
        x = mpmath.mpf(mu)
        if mu < 1.0:
            p = -mpmath.expm1(-x / 2)
            mu_b = -mpmath.log1p(-(p**2))
        else:
            e = mpmath.exp(-x / 2)
            mu_b = -mpmath.log(e * (2 - e))
        return 10 / mpmath.mpf(delta) * mpmath.log10(x / mu_b)


@pytest.mark.parametrize(
    "mu",
    [5e-324, 1e-300, 1e-160, 1e-150, 1e-100, 0.02, 1.0, 2.0, 5.0, 30.0, 70.0, 75.0, 1e3, 1e300],
)
def test_fully_insecure_length_matches_mpmath(mu):
    # from mu of about 75, 1 - exp(-mu/2) rounds to 1 and a direct 1 - p**2 hits log(0);
    # below mu of about 1e-154, p**2 underflows to 0
    expected = float(mp_fully_insecure_length(mu, 0.2))
    assert fully_insecure_length(params(mu)) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# key-rate margin and source-intensity optimisation


def test_margin_zero_length_is_bob_rate():
    assert key_rate_margin(params(0.5), 0.0) == pytest.approx(-math.expm1(-0.5), abs=1e-15)


def test_margin_frozen_value():
    assert key_rate_margin(params(0.5), 20.0) == pytest.approx(MARGIN_05_20, abs=1e-14)


def test_margin_vanishes_when_fully_insecure():
    p = params(0.5)
    l_ins = fully_insecure_length(p)
    assert key_rate_margin(p, l_ins + 0.5) == 0.0
    assert key_rate_margin(p, l_ins + 40.0) == 0.0
    assert key_rate_margin(p, l_ins - 0.5) > 0.0
    # just below the fully-insecure length at mu 0.05, i_ae is within
    # FULLY_INSECURE_TOL of one: the report is fully insecure, so the margin is 0
    report = active_attack(params(0.05), 95.68961614815218)
    assert 1.0 - FULLY_INSECURE_TOL <= report.i_ae < 1.0 and report.fully_insecure
    assert key_rate_margin(params(0.05), 95.68961614815218) == 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    mu=st.floats(min_value=0.02, max_value=1.0),
    k=st.integers(min_value=-10_000, max_value=10_000),
)
def test_margin_is_zero_exactly_when_fully_insecure(mu, k):
    p = params(mu)
    length = fully_insecure_length(p) * (1.0 + k * 2.0**-52)
    assert (key_rate_margin(p, length) == 0.0) == active_attack(p, length).fully_insecure


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    mu=st.floats(min_value=0.01, max_value=2.0),
    length=st.floats(min_value=0.0, max_value=300.0),
    share=st.floats(min_value=0.0, max_value=1.0),
)
def test_active_plan_stays_inside_its_budget(mu, length, share):
    p = params(mu)
    mu_e_max = channel_point(p, length).mu_e_max
    plan = active_plan(p, length, share * mu_e_max)
    assert 0.0 <= plan.block_fraction <= 1.0 - plan.p_conc_inf
    assert plan.mu_e <= mu_e_max


_lengths = st.floats(min_value=0.0, max_value=800.0)
_gaps = st.floats(min_value=0.0, max_value=50.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mu=st.floats(min_value=0.01, max_value=2.0), length=_lengths, gap=_gaps)
def test_active_critical_qber_is_non_increasing_in_length(mu, length, gap):
    p = params(mu)
    longer = active_attack(p, length + gap).qber_critical
    assert longer <= active_attack(p, length).qber_critical


# binary_entropy is not monotone in the last ulp, so the bs curve can rise by
# about 1e-15 between two lengths; the example is one such pair.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(mu=st.floats(min_value=0.01, max_value=2.0), length=_lengths, gap=_gaps)
@example(mu=1.0, length=673.5, gap=0.5)
def test_bs_critical_qber_is_non_increasing_in_length_up_to_rounding(mu, length, gap):
    p = params(mu)
    longer = bs_attack(p, length + gap).qber_critical
    assert longer <= bs_attack(p, length).qber_critical * (1.0 + 1e-12)


@pytest.mark.parametrize("length", [10.0, 30.0, 50.0])
def test_optimal_intensity_local_and_grid_optimality(length):
    opt = optimal_source_intensity(0.2, length)
    assert not opt.degenerate
    assert opt.margin > 0.0
    # local optimality
    for shift in (-0.01, 0.01):
        mu_shifted = opt.mu + shift
        if 0.0 < mu_shifted <= 2.0:
            assert opt.margin >= key_rate_margin(params(mu_shifted), length) - 1e-12
    # dominance over an independent 2000-point scan
    grid = np.linspace(2.0 / 2000, 2.0, 2000)
    best = max(key_rate_margin(params(m), length) for m in grid)
    assert opt.margin >= best - 1e-12
    # a positive margin requires operating below the insecurity length
    assert length < fully_insecure_length(params(opt.mu))


def test_optimal_intensity_maximiser_precision():
    # reported maximiser sits within 1e-6 of the true interior optimum,
    # which solves exp(-mu*t) = 1 - t for l below the critical length
    length = 8.0
    t = 10.0 ** (-0.2 * length / 10.0)
    exact = -math.log(1.0 - t) / t
    opt = optimal_source_intensity(0.2, length)
    assert opt.mu == pytest.approx(exact, abs=1e-6)


def test_optimal_intensity_continuity_in_length():
    # the optimal intensity path is continuous; sampled at 0.25 km it moves
    # by less than 0.05 per step even on its steepest descent from the
    # search bound (where the true slope is ~0.12 per km)
    lengths = np.arange(1.0, 100.0 + 1e-9, 0.25)
    mus = [optimal_source_intensity(0.2, l).mu for l in lengths]
    max_step = max(abs(b - a) for a, b in zip(mus, mus[1:]))
    assert max_step <= 0.05


def test_optimal_intensity_degenerate_reporting():
    # the insecurity length diverges as mu -> 0, so even at 300 km an
    # extremely dim source keeps a sliver of margin; at 1000 km everything
    # the search can reach is fully insecure and the result is degenerate
    barely = optimal_source_intensity(0.2, 300.0)
    assert not barely.degenerate
    assert 0.0 < barely.margin < 1e-6
    hopeless = optimal_source_intensity(0.2, 1000.0)
    assert hopeless.degenerate
    assert hopeless.margin <= 0.0


@pytest.mark.parametrize(
    "mu, length, secure, at_cap",
    [
        (0.5, 10.0, True, False),
        (2.0, 0.5, True, False),
        (0.5, 30.0, True, False),
        (0.5, 80.0, False, True),
        (0.05, 95.68961614815218, False, False),
    ],
    ids=["below-critical", "search-bound", "blocking", "at-cap", "fully-insecure-below-cap"],
)
def test_margin_does_not_depend_on_decoy_fraction(mu, length, secure, at_cap):
    # decoys change Eve's total conclusive rate but not the margin
    margins = [key_rate_margin(params(mu, f), length) for f in (0.0, 0.1, 0.5, 0.9)]
    assert margins == [margins[0]] * 4
    assert (margins[0] > 0.0) == secure
    plan = active_plan(params(mu), length)
    assert (plan.block_fraction == 1.0 - plan.p_conc_inf) == at_cap


def test_optimal_intensity_clips_to_search_bound_on_short_channel():
    # below the critical length the unconstrained optimum is -ln(1-t)/t,
    # which exceeds the search bound of 2 at 0.5 km
    t = 10.0 ** (-0.2 * 0.5 / 10.0)
    assert -math.log(1.0 - t) / t > 2.0
    opt = optimal_source_intensity(0.2, 0.5)
    assert opt.mu == 2.0
    assert opt.margin == key_rate_margin(params(2.0), 0.5)
    assert not opt.degenerate


@pytest.mark.parametrize("length", [2000.0, 20000.0])
def test_optimal_intensity_hopeless_channel_is_degenerate(length):
    # at 20000 km the transmittance underflows to exactly 0; the optimiser
    # must still hand ProtocolParams a positive intensity and flag the result
    opt = optimal_source_intensity(0.2, length)
    assert opt.degenerate
    assert opt.margin == 0.0
    assert 0.0 < opt.mu <= 2.0


def mp_optimal_intensity(delta: float, length: float) -> mpmath.mpf:
    # With T = 10**(-delta*L/10): -ln(1-T)/T below the critical length, else
    # the root of T*exp(-mu*T) = exp(-mu/2) - exp(-mu), both clipped at
    # MU_SEARCH_MAX. The root is about 2T on long channels, and findroot's
    # absolute tolerance returns wrong roots in mu once they are below about
    # 1e-30, so it solves for x = mu/T, which stays of order one, after
    # dividing by T.
    with mpmath.workdps(40):
        t = mpmath.mpf(10) ** (-mpmath.mpf(delta) * mpmath.mpf(length) / 10)
        if t >= 0.5:
            mu = -mpmath.log1p(-t) / t if t < 1 else mpmath.inf
        else:
            def stationarity(x):
                return mpmath.exp(-x * t * t) - mpmath.exp(-x * t) * mpmath.expm1(x * t / 2) / t

            mu = t * mpmath.findroot(stationarity, (mpmath.mpf("1e-3"), 2 / t), solver="illinois")
        return min(mu, mpmath.mpf(MU_SEARCH_MAX))


def optimal_intensity_lengths(delta: float):
    # the clip length, where -ln(1-T)/T = MU_SEARCH_MAX, and the critical
    # length, each approached from both sides; 0 km; random lengths to 4,000 km
    with mpmath.workdps(40):
        t_clip = mpmath.findroot(
            lambda t: -mpmath.log1p(-t) - MU_SEARCH_MAX * t, (0.6, 0.99), solver="illinois"
        )
        clip = float(-10 * mpmath.log10(t_clip) / delta)
    lengths = [0.0]
    for edge in (clip, critical_length(delta)):
        lengths += [edge * (1.0 + side * 10.0**-k) for k in range(1, 10) for side in (-1, 1)]
    rng = random.Random(2016)
    lengths += [rng.uniform(0.0, 4000.0) for _ in range(32)]
    lengths += [10.0 ** rng.uniform(-3.0, math.log10(4000.0)) for _ in range(31)]
    return lengths


@pytest.mark.parametrize("delta", [0.15, 0.2, 0.35])
def test_optimal_intensity_matches_mpmath(delta):
    # T's rounding error grows with the exponent delta*L/10, and mu* of a
    # long channel is about 2T, so the bound grows with L
    for length in optimal_intensity_lengths(delta):
        got = optimal_source_intensity(delta, length).mu
        expected = mp_optimal_intensity(delta, length)
        bound = (4.0 + math.log(10.0) * delta * length / 10.0) * sys.float_info.epsilon
        with mpmath.workdps(40):
            assert abs(got - expected) <= bound * expected, (length, got, expected)
