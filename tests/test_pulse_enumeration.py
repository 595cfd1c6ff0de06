"""The simulator's per-pulse decision tree, checked exactly against the closed forms and the kernel.

enumerate_pulse walks the tree in exact rational arithmetic, so its rates
carry no rounding of their own. The closed forms must match it to a few
ulp at every point of a fixed grid: a model error shows here at every
point, with no sampling noise. The kernel must match the same tree
exactly: test_kernel_tallies_every_branch_of_the_tree_exactly chooses
each pulse's words instead of drawing them, so that a run hits every
branch the point's probabilities allow, branch k in k + 1 pulses, and
its tally must equal the sum of counted over those pulses. counted is
the one description of a branch's outcome that both checks share.

Which kernel mutations each of test_montecarlo's KERNEL_BRANCHES points
sees, on the attacked stream (the lossy-line stream sees the first and
the last two wherever the attacked one does):
    decoys sent with probability f/2: all but no-decoys (f = 0);
    beta times 1.02, or times 1 + 1e-12: default, no-decoys and
        blocking-without-eve (beta is 1 at cap and bright-half-decoys, 0
        at full-budget);
    Bob's arm at mu_B instead of mu_B': all but full-budget (mu_B' = mu_B);
    Eve measuring only one slot of a decoy: default, cap, full-budget and
        bright-half-decoys (no decoys, or Eve draws nothing, elsewhere);
    Bob's early arm reading Eve's early draw, or his two arms' draws
        swapped: every point.

So the checks divide the work. The tree is checked exactly, against the
closed forms and against the kernel, here; the conversion of a word to
its draw's outcome by test_montecarlo's
test_threshold_decision_matches_float_uniform; and the statistical
validation is left to test only that the SplitMix64 words behave like
independent uniforms.
"""

import math
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from test_montecarlo import KERNEL_BRANCHES

from cowsec import montecarlo
from cowsec.attacks import active_plan, critical_length, fully_insecure_length
from cowsec.core import ProtocolParams, channel_point
from cowsec.montecarlo import ClassTally, TrialStats, decoy_distortion

EPS = sys.float_info.epsilon

# Occupied (early, late) slots per class.
_SLOTS = {"bit0": (True, False), "bit1": (False, True), "decoy": (True, True)}


def _draw(p):
    """A draw of probability p: its (hit, integer weight) outcomes and their common denominator."""
    p = Fraction(p)
    return ((True, p.numerator), (False, p.denominator - p.numerator)), p.denominator


def counted(slots, eve, block, bob):
    """The ClassTally counters, as 0/1 flags, of one branch of the decision tree.

    slots are the pulse's occupied (early, late) slots, eve and bob the hits
    of Eve's and Bob's (early, late) draws, and block the block draw's hit.
    """
    early, late = slots
    conclusive = (early and eve[0]) or (late and eve[1])
    blocked = block and not conclusive
    clicks = 0 if blocked else (early and bob[0]) + (late and bob[1])
    return (1, conclusive, blocked, clicks == 1, clicks == 2, conclusive and clicks > 0)


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
    for name, slots in _SLOTS.items():
        counts = [0] * len(ClassTally._fields)
        for (e0, w0), (e1, w1), (blk, wb), (c0, v0), (c1, v1) in product(eve, eve, block, bob, bob):
            weight = w0 * w1 * wb * v0 * v1
            flags = counted(slots, (e0, e1), blk, (c0, c1))
            counts = [n + weight * c for n, c in zip(counts, flags)]
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
        report = decoy_distortion(params, length, f, 1, 0, mu_e=mu_e)
        plan = report.plan
        # beta from the plan's b directly, not through its p_block
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


def _draw_words(p):
    """The (hit, word) outcomes a draw of probability p can give the kernel.

    A word z draws the uniform (z >> 11) * 2**-53, and the least word whose
    uniform is at least p is t = ceil(p * 2**53) << 11: t - 1 hits and t
    misses. No word hits where p = 0, and from p = 1 on every word hits.
    """
    if p >= 1.0:
        return ((True, 0),)
    t = math.ceil(p * 2.0**53) << 11
    return ((True, t - 1),) * (p > 0.0) + ((False, t),)


def kernel_branches(f, p_eve, beta, p_bob):
    """Every branch of the decision tree that the kernel's probabilities allow.

    Each is (class name, the words of draw slots 0 to 5, counted's flags).
    The class word hits the bit0 draw (bit0), misses it (bit1) or misses the
    information draw (a decoy, which f = 0 rules out).
    """
    (_, bit0), (_, bit1) = _draw_words(0.5 * (1.0 - f))
    classes = [("bit0", bit0), ("bit1", bit1)]
    classes += [("decoy", word) for hit, word in _draw_words(1.0 - f) if not hit]
    eve, block, bob = _draw_words(p_eve), _draw_words(beta), _draw_words(p_bob)
    return [
        (name, (word, w0, w1, wb, v0, v1), counted(_SLOTS[name], (e0, e1), blk, (c0, c1)))
        for name, word in classes
        for (e0, w0), (e1, w1), (blk, wb), (c0, v0), (c1, v1) in product(eve, eve, block, bob, bob)
    ]


def chosen_words(branches):
    """The words of a run that takes branch k in k + 1 pulses, a row per draw slot, and its tally.

    Copies weighted this way make a mutation that swaps two branches with
    different outcomes change the tally, even where the plain sum is
    symmetric in them.
    """
    pulses = [branch for k, branch in enumerate(branches) for _ in range(k + 1)]
    tally = {name: [0] * len(ClassTally._fields) for name in _SLOTS}
    for name, _, flags in pulses:
        tally[name] = [n + c for n, c in zip(tally[name], flags)]
    table = np.array([words for _, words, _ in pulses], dtype=np.uint64).T
    return table, TrialStats(*(ClassTally(*tally[name]) for name in TrialStats._fields))


def kernel_inputs(p, length, mu_e):
    """(p_eve, beta, p_bob) of the attacked and lossy-line streams, beta from the plan's b."""
    plan = active_plan(p, length, mu_e)
    beta = plan.block_fraction / (1.0 - plan.p_conc_inf) if plan.block_fraction else 0.0
    return {
        "attacked": (plan.p_conc_inf, beta, -math.expm1(-plan.mu_b_prime)),
        "lossy": (0.0, 0.0, -math.expm1(-channel_point(p, length).mu_b)),
    }


# Branches per stream (attacked, lossy) at each point: 3 classes (2 without
# decoys) times two outcomes of each draw a probability in (0, 1) decides.
BRANCH_COUNTS = {
    "default": (96, 12),
    "no-decoys": (64, 8),
    "cap": (48, 12),
    "blocking-without-eve": (24, 12),
    "full-budget": (48, 12),
    "bright-half-decoys": (48, 12),
}


@pytest.mark.parametrize("stream", ["attacked", "lossy"])
@pytest.mark.parametrize("point", KERNEL_BRANCHES)
def test_kernel_tallies_every_branch_of_the_tree_exactly(point, stream, monkeypatch):
    p, length, f, mu_e = KERNEL_BRANCHES[point]
    branches = kernel_branches(f, *kernel_inputs(p, length, mu_e)[stream])
    assert len(branches) == BRANCH_COUNTS[point][stream == "lossy"]
    table, expected = chosen_words(branches)
    # at seed 0 pulse i's slot-0 counter is (8i + 1) * golden mod 2**64
    inverse = np.uint64(pow(montecarlo._GOLDEN, -1, 2**64))

    def lookup(base, slot, out, tmp):
        pulse = (base * inverse - np.uint64(1)) >> np.uint64(3)
        return np.take(table[slot], pulse, out=out)

    monkeypatch.setattr(montecarlo, "_words", lookup)
    n = table.shape[1]
    if stream == "attacked":
        tally = montecarlo.simulate_active_attack(p, length, f, n, 0, mu_e=mu_e)
    else:
        tally = montecarlo.simulate_no_attack(p, length, f, n, 0)
    assert tally == expected
