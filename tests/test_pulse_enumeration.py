"""An exact one-pulse oracle for the closed forms the simulator is checked against.

enumerate_pulse walks the simulator's per-pulse decision tree in exact
rational arithmetic, so its rates carry no rounding of their own. The
closed forms must match it to a few ulp at every point of a fixed grid:
a model error shows here at every point, with no sampling noise, while a
sampler error shows in the statistical tests.
"""

import math
import sys
from fractions import Fraction
from itertools import product

import pytest

from cowsec.attacks import active_plan, critical_length, fully_insecure_length
from cowsec.core import ProtocolParams, channel_point
from cowsec.montecarlo import ClassTally, decoy_distortion

EPS = sys.float_info.epsilon

# Occupied (early, late) slots per class.
_SLOTS = {"bit0": (True, False), "bit1": (False, True), "decoy": (True, True)}


def _draw(p):
    """A draw of probability p: its (hit, integer weight) outcomes and their common denominator."""
    p = Fraction(p)
    return ((True, p.numerator), (False, p.denominator - p.numerator)), p.denominator


def enumerate_pulse(f, p_eve, beta, p_bob):
    """Exact per-pulse rate of every ClassTally counter, one tally per class.

    Follows _pulse_outcomes' decision tree in exact rationals of the float
    inputs: the class draw, Eve's early and late draws (a slot the pulse
    occupies is conclusive with p_eve), the block draw (beta, on pulses
    inconclusive for Eve) and Bob's early and late draws (p_bob), each
    taken for every pulse, 96 branches in all. A branch's probability is
    the product of its draws' weights over their common denominator; a
    counter's rate sums the branches it counts, so sent is the class's
    share of pulses.
    """
    f = Fraction(f)
    shares = {"bit0": (1 - f) / 2, "bit1": (1 - f) / 2, "decoy": f}
    eve, d_eve = _draw(p_eve)
    block, d_block = _draw(beta)
    bob, d_bob = _draw(p_bob)
    unit = Fraction(1, d_eve * d_eve * d_block * d_bob * d_bob)
    tallies = {}
    for name, (early, late) in _SLOTS.items():
        counts = [0] * len(ClassTally._fields)
        for (e0, w0), (e1, w1), (blk, wb), (c0, v0), (c1, v1) in product(eve, eve, block, bob, bob):
            weight = w0 * w1 * wb * v0 * v1
            conclusive = (early and e0) or (late and e1)
            blocked = blk and not conclusive
            clicks = 0 if blocked else (early and c0) + (late and c1)
            counted = (1, conclusive, blocked, clicks == 1, clicks == 2, conclusive and clicks > 0)
            counts = [n + weight * c for n, c in zip(counts, counted)]
        tallies[name] = ClassTally(*(shares[name] * unit * n for n in counts))
    return tallies


def assert_close(closed, exact, b_class, label):
    """closed within 4 eps / (1 - b_class) of exact, relative; the bound is exact arithmetic."""
    bound = Fraction(4 * EPS) / (1 - b_class)
    assert abs(Fraction(closed) - exact) <= bound * abs(exact), (label, closed, float(exact))


def _grid():
    """(params, decoy fraction f, length, mu_e) over every regime, three diverted intensities and f = 0.

    Per mu the lengths are 0 km, below and at the critical length, inside
    the blocking regime, within 1e-9 of the fully-insecure length L* on
    either side, beyond L* and at 200 km. mu_e is Eve's optimum (None),
    half of it and the full budget.
    """
    delta = 0.2
    l_crit = critical_length(delta)
    for mu, f in ((1e-3, 0.1), (0.05, 0.0), (0.2, 0.1), (1.0, 0.5), (3.0, 0.1), (0.2, 0.0)):
        params = ProtocolParams(mu, delta)
        l_star = fully_insecure_length(params)
        lengths = (
            0.0, l_crit / 2, l_crit, (l_crit + l_star) / 2,
            l_star * (1 - 1e-9), l_star, l_star * (1 + 1e-9), l_star + 20.0, 200.0,
        )
        for length in lengths:
            half = active_plan(params, length).mu_e / 2
            for mu_e in (None, half, channel_point(params, length).mu_e_max):
                yield params, f, length, mu_e


def test_closed_forms_equal_the_exact_one_pulse_enumeration():
    points = list(_grid())
    assert len(points) == 162
    regimes = set()
    for params, f, length, mu_e in points:
        label = (params.mu, f, length, mu_e)
        report = decoy_distortion(params, length, f, 1, 0, mu_e)
        plan = report.plan
        # beta from the plan's b directly, not through blocking_probability
        beta = Fraction(plan.block_fraction)
        if beta:
            beta /= 1 - Fraction(plan.p_conc_inf)
        attacked = enumerate_pulse(f, plan.p_conc_inf, beta, -math.expm1(-plan.mu_b_prime))
        mu_b = channel_point(params, length).mu_b
        unattacked = enumerate_pulse(f, 0.0, 0.0, -math.expm1(-mu_b))

        info = attacked["bit0"] + attacked["bit1"]
        b = info.blocked / info.sent
        regimes.add("unblocked" if b == 0 else "capped" if b == 1 - plan.p_conc_inf else "blocking")
        assert_close(plan.block_fraction, b, b, ("b",) + label)
        # i_AE read as the share of Bob's clicks on information pulses that Eve knows
        i_ae = info.eve_conclusive_bob_click / info.bob_click
        assert_close(plan.i_ae, i_ae, b, ("i_ae",) + label)
        # the margin is Bob's unattacked click rate C less the rate K of his
        # clicks Eve knows; near L* C - K cancels, so its bound is absolute
        capacity = (unattacked["bit0"].bob_click + unattacked["bit1"].bob_click) / info.sent
        margin = max(Fraction(0), capacity - info.eve_conclusive_bob_click / info.sent)
        assert abs(Fraction(plan.margin) - margin) <= 4 * Fraction(EPS) * capacity, ("margin",) + label
        if f > 0:
            decoy = attacked["decoy"]
            p_conc_cont = decoy.eve_conclusive / decoy.sent
            assert_close(plan.p_conc_cont, p_conc_cont, 0, ("p_conc_cont",) + label)

        classes = [name for name in _SLOTS if f > 0 or name != "decoy"]
        assert [row.pulse_class for row in report.rows] == [c for c in classes for _ in range(3)]
        patterns = ("no_click", "single", "double")
        for row in report.rows:
            cell = (row.pulse_class, row.pattern) + label
            index = patterns.index(row.pattern)
            exact = unattacked[row.pulse_class]
            assert_close(row.expected_no_attack, exact.patterns[index] / exact.sent, 0, cell)
            exact = attacked[row.pulse_class]
            b_class = exact.blocked / exact.sent
            assert_close(row.expected_attack, exact.patterns[index] / exact.sent, b_class, cell)
    assert regimes == {"unblocked", "blocking", "capped"}


def test_enumeration_sums_to_the_class_shares():
    tallies = enumerate_pulse(0.25, 0.3, 0.4, 0.6)
    assert [t.sent for t in tallies.values()] == [Fraction(3, 8), Fraction(3, 8), Fraction(1, 4)]
    for tally in tallies.values():
        assert sum(tally.patterns) == tally.sent
    # an information pulse occupies one slot, so it never double-clicks
    assert tallies["bit0"].bob_double_click == tallies["bit1"].bob_double_click == 0


@pytest.mark.parametrize("p_eve, beta", [(0.0, 0.0), (0.3, 0.0), (0.3, 1.0)])
def test_enumeration_at_the_edges_of_the_policy(p_eve, beta):
    p_bob = Fraction(0.6)
    info = enumerate_pulse(0.0, p_eve, beta, p_bob)["bit0"]
    assert info.blocked == info.sent * (1 - Fraction(p_eve)) * Fraction(beta)
    # Eve's conclusive pulses are never blocked and reach Bob at p_bob
    assert info.eve_conclusive_bob_click == info.sent * Fraction(p_eve) * p_bob
