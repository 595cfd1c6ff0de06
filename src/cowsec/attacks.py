"""Eavesdropping analyses for the COW protocol.

Two attacks are quantified per channel length. In the passive
beam-splitting attack Eve diverts the full loss budget, stores the
diverted states and decodes them collectively at the Holevo bound. In the
active variant she measures each diverted pulse immediately with a
threshold detector, blocks part of her inconclusive pulses within the
loss budget, and forwards the rest over a lossless line at a raised
intensity so that Bob's expected click rate is unchanged.

Both analyses report Eve's information per sifted bit and the critical
QBER at which her information matches Bob's, the point where no secret
key can be distilled.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .core import (
    ProtocolParams,
    attenuate,
    binary_entropy_inverse,
    channel_point,
    coherent_pair_overlap,
    holevo_two_pure,
)

__all__ = [
    "FULLY_INSECURE_TOL",
    "ActiveAttackPlan",
    "AttackReport",
    "OptimalIntensity",
    "bs_attack",
    "active_plan",
    "active_eve_info",
    "critical_length",
    "active_attack",
    "fully_insecure_length",
    "key_rate_margin",
    "optimal_source_intensity",
]

# Eve's information is treated as unity (no added errors needed) above this.
FULLY_INSECURE_TOL = 1e-12

# Upper bound on the source intensity. COW runs deep in the mu < 1 regime
# and the key-rate margin decays for bright sources, so (0, 2] holds every
# practically relevant optimum.
MU_SEARCH_MAX = 2.0


class ActiveAttackPlan(NamedTuple):
    """Eve's parameter choice for the active beam-splitting attack.

    mu_e is the diverted intensity, mu_b_prime the intensity forwarded to
    Bob over the lossless line. block_fraction b is the share of
    information pulses Eve suppresses, capped at her inconclusive
    probability on them, 1 - p_conc_inf.
    """

    mu_e: float
    mu_b_prime: float
    block_fraction: float
    p_conc_inf: float
    p_conc_cont: float
    p_conc_total: float


class AttackReport(NamedTuple):
    """Outcome of one attack analysis at one channel point."""

    i_ae: float
    qber_critical: float
    fully_insecure: bool
    plan: Optional[ActiveAttackPlan] = None


class OptimalIntensity(NamedTuple):
    """Result of the legitimate users' source-intensity optimisation."""

    mu: float
    margin: float
    degenerate: bool  # True when no intensity in the search range yields a positive margin


def bs_attack(params: ProtocolParams, length_km: float) -> AttackReport:
    """Passive beam-splitting attack with collective decoding.

    Eve diverts the whole loss budget mu_e_max and is bounded by the
    Holevo quantity of her two single-slot coherent states. Her
    information stays below one bit at any finite length, so the critical
    QBER never reaches zero.
    """
    point = channel_point(params, length_km)
    return _report(holevo_two_pure(coherent_pair_overlap(point.mu_e_max)))


def _report(i_ae: float, plan: Optional[ActiveAttackPlan] = None) -> AttackReport:
    """Critical QBER where Bob's 1 - h2(Q) falls to Eve's i_ae; zero once she knows everything."""
    insecure = _fully_insecure(i_ae)
    qber = 0.0 if insecure else binary_entropy_inverse(1.0 - i_ae)
    return AttackReport(i_ae, qber, insecure, plan)


def _fully_insecure(i_ae: float) -> bool:
    """Eve's information counts as a whole bit: no added errors needed, no key left."""
    return i_ae >= 1.0 - FULLY_INSECURE_TOL


def active_plan(
    params: ProtocolParams, length_km: float, mu_e: Optional[float] = None
) -> ActiveAttackPlan:
    """Build the active-attack working point for a diverted intensity mu_e.

    With mu_e=None Eve takes her information-maximising intensity
    min(mu_e_max, mu/2). Her uncapped information is proportional to
    (1 - exp(-(mu - mu_e))) * (1 - exp(-mu_e)), symmetric about mu/2, so
    the unconstrained optimum sits at mu/2 and the loss budget truncates
    it on short channels.

    The blocking fraction balances the intensity budget: Bob's expected
    conclusive rate at the raised forward intensity mu_b_prime, thinned by
    blocking, must equal his rate over the ordinary lossy fibre,
    (1 - b) * (1 - exp(-mu_b_prime)) = 1 - exp(-mu_b). Blocking beyond
    Eve's inconclusive fraction on information states is useless, so the
    raw balance value is capped there, and clamped at zero for a mu_e
    within rounding of the budget. A mu_e above the budget by more than
    1e-12 * mu is rejected; within that it is the full budget, where Eve
    forwards mu_b itself and blocks nothing, as in the exact model
    (mu - mu_e_max cancels once mu_b / mu nears machine epsilon).
    """
    point = channel_point(params, length_km)
    if mu_e is None:
        mu_e = params.mu / 2.0
    elif not mu_e >= 0:
        raise ValueError(f"diverted intensity mu_e must be non-negative, got {mu_e}")
    elif mu_e > point.mu_e_max + 1e-12 * params.mu:
        raise ValueError(
            f"diverted intensity mu_e = {mu_e} exceeds the loss budget "
            f"{point.mu_e_max} at {length_km} km"
        )
    mu_e = min(mu_e, point.mu_e_max)
    if mu_e == point.mu_e_max:
        mu_b_prime, raw_b = point.mu_b, 0.0
    else:
        mu_b_prime = params.mu - mu_e
        raw_b = 1.0 - (-math.expm1(-point.mu_b)) / (-math.expm1(-mu_b_prime))

    p_conc_inf = -math.expm1(-mu_e)
    # Decoys occupy both slots, so Eve's conclusive probability on them is
    # that of two independent threshold detections: 1 - exp(-2*mu_e).
    p_conc_cont = -math.expm1(-2.0 * mu_e)
    f = params.decoy_fraction
    p_conc_total = (1.0 - f) * p_conc_inf + f * p_conc_cont

    b = max(0.0, min(raw_b, 1.0 - p_conc_inf))
    return ActiveAttackPlan(mu_e, mu_b_prime, b, p_conc_inf, p_conc_cont, p_conc_total)


def active_eve_info(plan: ActiveAttackPlan) -> float:
    """Eve's information per sifted bit under an active-attack plan.

    She knows every bit on which her threshold measurement was conclusive;
    blocking enriches the delivered stream in those bits, giving
    p_conc_inf / (1 - b). Reaches exactly one when the blocking cap is
    attained and every delivered bit is known to her.
    """
    if plan.p_conc_inf == 0.0:
        return 0.0
    if plan.block_fraction >= 1.0 - plan.p_conc_inf:  # cap reached, exactly one bit
        return 1.0
    return plan.p_conc_inf / (1.0 - plan.block_fraction)


def critical_length(delta: float) -> float:
    """Length beyond which half the source intensity fits in the loss budget.

    Solves 1 - 10**(-delta*l/10) = 1/2, i.e. l = 10*log10(2)/delta
    (about 3.01/delta km). Past this point blocking becomes worthwhile
    for Eve.
    """
    if not delta > 0:
        raise ValueError(f"attenuation coefficient must be positive, got {delta}")
    return 10.0 * math.log10(2.0) / delta


def active_attack(params: ProtocolParams, length_km: float) -> AttackReport:
    """Active beam-splitting attack at Eve's optimal plan, active_plan(params, length_km)."""
    plan = active_plan(params, length_km)
    return _report(active_eve_info(plan), plan)


def fully_insecure_length(params: ProtocolParams) -> float:
    """Smallest length at which the active attack needs no added errors.

    At the blocking cap Bob's expected click rate must fit entirely inside
    Eve's conclusive-and-forwarded stream:
    1 - exp(-mu_b) = (1 - exp(-mu/2))**2 at the optimal mu_e = mu/2.
    Solving for mu_b and inverting the fibre loss gives the length in
    closed form. The cap is unreachable below the critical length, and
    the resulting mu_b is always below mu/2, so the mu/2 branch is the
    right one and the crossing is unique.

    For mu > 2, p = 1 - exp(-mu/2) rounds towards 1 and 1 - p**2 loses
    its digits (to log1p(-1) from mu of about 75), so mu_b is taken from
    1 - p**2 = e*(2 - e) with e = exp(-mu/2) instead.

    For mu below 1e-100, p**2 underflows (to 0 from mu of about 1e-154),
    but there mu_b = (mu/2)**2 to a relative 1e-100, so mu/mu_b = 4/mu,
    whose log is taken as a difference since 4/mu overflows below 2.2e-308.
    """
    if params.mu < 1e-100:
        return 10.0 / params.delta * (math.log10(4.0) - math.log10(params.mu))
    if params.mu > 2.0:
        e = math.exp(-params.mu / 2.0)
        mu_b_star = params.mu / 2.0 - math.log(2.0) - math.log1p(-e / 2.0)
    else:
        p_half = -math.expm1(-params.mu / 2.0)
        mu_b_star = -math.log1p(-p_half * p_half)
    return 10.0 / params.delta * math.log10(params.mu / mu_b_star)


def key_rate_margin(params: ProtocolParams, length_km: float) -> float:
    """Secret bits per sent pulse left to Alice and Bob under the active attack.

    Bob's information is the erasure-channel capacity 1 - exp(-mu_b) per
    pulse; Eve's share of it is active_eve_info at her optimal plan,
    active_plan(params, length_km). The margin (1 - exp(-mu_b)) * (1 - i_ae)
    is zero exactly in the fully insecure regime.
    """
    mu_b = attenuate(params.mu, params.delta, length_km)
    return _margin(mu_b, active_eve_info(active_plan(params, length_km)))


def _margin(mu_b: float, i_ae: float) -> float:
    """Bob's erasure-channel capacity 1 - exp(-mu_b) less Eve's share i_ae of it.

    Zero wherever _report calls the point fully insecure, so that the
    margin and the fully-insecure flag never disagree.
    """
    if _fully_insecure(i_ae):
        return 0.0
    return -math.expm1(-mu_b) * (1.0 - i_ae)


def optimal_source_intensity(delta: float, length_km: float) -> OptimalIntensity:
    """Source intensity maximising the key-rate margin at a given length.

    With T = 10**(-delta*L/10) the regime depends on L alone. Below the
    critical length (T >= 1/2) Eve diverts the whole budget unblocked and
    the margin exp(-mu*(1-T)) - exp(-mu) peaks in closed form at
    mu* = -ln(1-T)/T. Beyond it the margin is
    max(0, (1 - exp(-mu*T)) - (1 - exp(-mu/2))**2), whose stationarity
    condition T*exp(-mu*T) = exp(-mu/2) - exp(-mu) has exactly one root in
    (0, MU_SEARCH_MAX]; bisection finds it. mu* is clipped to
    MU_SEARCH_MAX, which binds below about 5 km at 0.2 dB/km, where the
    unconstrained optimum is brighter (unbounded at 0 km). The margin is
    key_rate_margin at mu*, which the decoy fraction does not enter; a
    degenerate result (no positive margin, e.g. when the long-channel
    optimum is too dim for double precision to resolve) is flagged
    rather than raised.
    """
    t = attenuate(1.0, delta, length_km)
    if t >= 0.5:
        mu_star = -math.log1p(-t) / t if t < 1.0 else math.inf
    else:
        mu_star = _stationary_root(t)
    mu_star = min(mu_star, MU_SEARCH_MAX)
    margin = key_rate_margin(ProtocolParams(mu=mu_star, delta=delta), length_km)
    return OptimalIntensity(mu=mu_star, margin=margin, degenerate=margin <= 0.0)


def _stationary_root(t: float) -> float:
    """Root in (0, MU_SEARCH_MAX] of t*exp(-mu*t) - exp(-mu)*expm1(mu/2).

    The function is t > 0 at mu -> 0+ and changes sign once, so bisection
    to adjacent floats pins the root; hi never reaches 0, and it stays at
    MU_SEARCH_MAX if there is no sign change.
    """
    lo, hi = 0.0, MU_SEARCH_MAX
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if t * math.exp(-mid * t) > math.exp(-mid) * math.expm1(0.5 * mid):
            lo = mid
        else:
            hi = mid
