"""Simulator cross-validation against the closed-form rates.

Binomial comparisons run at 4 sigma with one million pulses. Targets for
the attacked runs are the closed forms of the inconclusive-only blocking
policy: information pulses are blocked at the plan's b, decoys, which Eve
finds inconclusive less often, at a lower rate. The idealised budget
identities are additionally asserted at a moderate working point.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowsec import montecarlo
from cowsec.attacks import active_plan
from cowsec.core import ProtocolParams, channel_point
from cowsec.montecarlo import (
    ClassTally,
    TrialStats,
    _baseline_seed,
    _below,
    _buffers,
    _mix,
    _pattern_probabilities,
    _pulse_outcomes,
    _words,
    decoy_distortion,
    simulate_active_attack,
    simulate_no_attack,
)
from cowsec.sweeps import run_montecarlo_validation

N = 1_000_000
SEED = 42
F = 0.1  # the decoy fraction, the simulator's own argument; the CLI's default


def params(mu, delta=0.2):
    return ProtocolParams(mu=mu, delta=delta)


def assert_within_4_sigma(count, total, expected, label=""):
    se = math.sqrt(expected * (1.0 - expected) / total)
    z = (count / total - expected) / se if se > 0 else 0.0
    assert abs(z) <= 4.0, f"{label}: observed {count/total:.6f}, expected {expected:.6f}, z={z:.2f}"


def pulse_range(run, first, n):
    """Tallies of pulses [first, first + n): run(first + n) less run(first), class by class.

    run(m) simulates pulses 0 to m - 1 of one seed, and a pulse's outcome
    depends only on the seed and its index.
    """
    whole, prefix = run(first + n), run(first)
    return TrialStats(*(ClassTally(*(a - b for a, b in zip(w, q))) for w, q in zip(whole, prefix)))


def pulses(stats):
    """The pulses a run simulated: its three classes' sent counts."""
    return sum(tally.sent for tally in stats)


def policy_expectations(p: ProtocolParams, length_km: float, plan):
    """Closed-form per-pulse rates implied by the blocking policy."""
    beta = plan.p_block
    info_block = math.exp(-plan.mu_e) * beta  # inconclusive, then blocked
    p_fwd = -math.expm1(-plan.mu_b_prime)
    return {
        "info_block": info_block,
        "info_bob_click": (1.0 - info_block) * p_fwd,
        "i_ae_proxy": plan.p_conc_inf / (1.0 - info_block),
    }


# ---------------------------------------------------------------------------
# unattacked link


def test_no_attack_rates():
    p = params(0.2)
    point = channel_point(p, 20.0)
    p_click = -math.expm1(-point.mu_b)
    stats = simulate_no_attack(p, 20.0, F, N, SEED)
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
    assert_within_4_sigma(stats.decoy.sent, N, F, "decoy fraction")
    assert_within_4_sigma(stats.bit0.sent, N, 0.45, "bit0 fraction")
    # information states occupy one slot, they can never double-click
    assert info.bob_double_click == 0
    assert all(t.eve_conclusive == t.blocked == 0 for t in stats)


def test_no_attack_without_decoys():
    stats = simulate_no_attack(params(0.2), 20.0, 0.0, 50_000, SEED)
    assert stats.decoy.sent == 0
    assert stats.bit0.sent + stats.bit1.sent == 50_000


# ---------------------------------------------------------------------------
# active attack on the standard grid


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("length", [5.0, 20.0, 40.0])
def test_active_attack_grid_rates(mu, length):
    p = params(mu)
    plan = active_plan(p, length)
    stats = simulate_active_attack(p, length, F, N, SEED)
    info = stats.info
    expect = policy_expectations(p, length, plan)
    block_decoy = math.exp(-2.0 * plan.mu_e) * plan.p_block
    patterns = _pattern_probabilities(
        -math.expm1(-plan.mu_b_prime), plan.block_fraction, block_decoy
    )

    assert_within_4_sigma(info.eve_conclusive, info.sent, plan.p_conc_inf, "eve conclusive")
    assert_within_4_sigma(
        stats.decoy.eve_conclusive, stats.decoy.sent, plan.p_conc_cont, "eve conclusive decoy"
    )
    assert expect["info_block"] == pytest.approx(plan.block_fraction, rel=1e-12, abs=1e-15)
    assert_within_4_sigma(info.blocked, info.sent, plan.block_fraction, "blocked info share")
    assert_within_4_sigma(info.bob_click, info.sent, expect["info_bob_click"], "bob info click")
    assert_within_4_sigma(
        info.eve_conclusive_bob_click, info.bob_click, expect["i_ae_proxy"], "i_ae proxy"
    )
    assert_within_4_sigma(
        stats.decoy.bob_double_click, stats.decoy.sent, patterns["decoy"][2], "decoy double"
    )
    # Eve never blocks her conclusive pulses
    for tally in stats:
        assert tally.blocked <= tally.sent - tally.eve_conclusive
        assert tally.bob_single_click + tally.bob_double_click <= tally.sent


def test_active_attack_budget_identities_at_moderate_point():
    # the policy blocks information pulses at b, so the textbook budget
    # identities hold
    p = params(0.2)
    plan = active_plan(p, 20.0)
    stats = simulate_active_attack(p, 20.0, F, N, SEED)
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
# determinism and argument checks


def test_simulations_are_deterministic():
    p = params(0.2)
    a = simulate_active_attack(p, 20.0, F, 200_000, SEED)
    b = simulate_active_attack(p, 20.0, F, 200_000, SEED)
    assert a == b
    c = simulate_no_attack(p, 20.0, F, 200_000, SEED)
    assert c == simulate_no_attack(p, 20.0, F, 200_000, SEED)


@pytest.mark.parametrize(
    "n_pulses, message",
    [
        (0, "need at least one pulse, got n_pulses = 0"),
        # the counters of pulse 2^61 repeat those of pulse 0
        (2**61 + 1, r"need at most 2\*\*61 pulses, got n_pulses = 2305843009213693953"),
    ],
    ids=["0", "2**61+1"],
)
def test_simulators_reject_a_pulse_count_outside_1_to_2_61(n_pulses, message):
    p = params(0.2)
    with pytest.raises(ValueError, match=message):
        simulate_no_attack(p, 20.0, F, n_pulses, SEED)
    with pytest.raises(ValueError, match=message):
        simulate_active_attack(p, 20.0, F, n_pulses, SEED)


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 5])
def test_simulators_reject_a_seed_outside_64_bits(seed):
    # -5 would wrap to 2**64 - 5 and silently repeat that seed's streams
    p = params(0.2)
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
        simulate_no_attack(p, 20.0, F, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        simulate_active_attack(p, 20.0, F, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        decoy_distortion(p, 20.0, F, 10, seed)


@pytest.mark.parametrize("f", [-0.01, 1.0, math.nan])
def test_simulators_reject_a_decoy_fraction_outside_0_1(f):
    # the decoy fraction is the simulator's own argument, checked where it enters
    p = params(0.2)
    message = rf"decoy fraction must lie in \[0, 1\), got {f}"
    for simulate in (simulate_no_attack, simulate_active_attack, decoy_distortion):
        with pytest.raises(ValueError, match=message):
            simulate(p, 20.0, f, 10, SEED)
    with pytest.raises(ValueError, match=message):
        run_montecarlo_validation(p, 20.0, f, 10, SEED)


# Exact counts: any change to the counter layout, the draw order, the
# blocking probability or the tally shows up here. The 2^20 + 3 pulses
# from index 5, taken as pulse_range's difference of two runs from pulse 0,
# cross a chunk boundary; seed 2^64 - 1 wraps the counter.
GOLDEN_N = 2**20 + 3
GOLDEN_SEED = 2**64 - 1


def golden_range(simulate, p, length, f, **kwargs):
    """simulate's tallies of the GOLDEN_N pulses from index 5 at GOLDEN_SEED."""
    return pulse_range(lambda n: simulate(p, length, f, n, GOLDEN_SEED, **kwargs), 5, GOLDEN_N)


def _golden(n, bit0, bit1, decoy):
    stats = TrialStats(ClassTally(*bit0), ClassTally(*bit1), ClassTally(*decoy))
    assert pulses(stats) == n
    return stats


def test_golden_counts_no_attack():
    stats = golden_range(simulate_no_attack, params(0.2), 20.0, F)
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
                (472309, 44755, 92943, 36630, 0, 4375),
                (471743, 44890, 92198, 36176, 0, 4201),
                (104527, 19012, 18526, 14717, 779, 3417),
            ),
        ),
    ],
)
def test_golden_counts_active_attack(length, block_fraction, counts):
    p = params(0.2)
    plan = active_plan(p, length)
    assert plan.block_fraction == block_fraction
    stats = golden_range(simulate_active_attack, p, length, F)
    assert stats == _golden(GOLDEN_N, *counts)


@pytest.mark.parametrize(
    "p, length, f, mu_e, beta, counts",
    [
        # f = 0: the information threshold 1 - f is 1, so every pulse is a bit
        pytest.param(
            params(0.2),
            20.0,
            0.0,
            None,
            0.2163416139226735,
            (
                (524601, 49726, 103169, 40654, 0, 4863),
                (523978, 50043, 102364, 40072, 0, 4712),
                (0, 0, 0, 0, 0, 0),
            ),
            id="no-decoys",
        ),
        # at the cap every inconclusive pulse is blocked
        pytest.param(
            params(0.5),
            60.0,
            F,
            None,
            1.0,
            (
                (472309, 104132, 368177, 23133, 0, 23133),
                (471743, 104495, 367248, 23092, 0, 23092),
                (104527, 41170, 63357, 14045, 2022, 16067),
            ),
            id="capped-blocking",
        ),
        # nothing diverted: blocking without Eve's draws, b = beta
        pytest.param(
            params(0.2),
            20.0,
            F,
            0.0,
            0.5777875817487259,
            (
                (472309, 0, 273156, 36301, 0, 0),
                (471743, 0, 272214, 36097, 0, 0),
                (104527, 0, 60241, 13134, 1432, 0),
            ),
            id="blocking-without-eve",
        ),
    ],
)
def test_golden_counts_kernel_branches(p, length, f, mu_e, beta, counts):
    plan = active_plan(p, length, mu_e)
    assert plan.p_block == beta
    stats = golden_range(simulate_active_attack, p, length, f, mu_e=mu_e)
    assert stats == _golden(GOLDEN_N, *counts)


def test_derived_stream_seed_is_distinct_and_stable():
    assert _baseline_seed(SEED) == _baseline_seed(SEED)
    assert _baseline_seed(SEED) != SEED
    assert 0 <= _baseline_seed(SEED) < 2**64


def splitmix64_stream_seed(seed, stream):
    # SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) on Python ints: the
    # counter seed + (stream+1)*golden, then the finalizer
    mask = (1 << 64) - 1
    x = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def test_derived_stream_seed_matches_splitmix64_reference():
    rng = random.Random(2014)
    seeds = [0, -1, 2**64 - 1, 2**70] + [rng.randrange(-(2**80), 2**80) for _ in range(1000)]
    for seed in seeds:
        assert _baseline_seed(seed) == splitmix64_stream_seed(seed, 1), seed


# ---------------------------------------------------------------------------
# integer-threshold draws

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def uniforms_oracle(base, slot):
    """Unit uniforms of one draw slot, made as the kernel made them before it compared integers."""
    z = _mix(base + np.uint64((slot * GOLDEN) & MASK64), np.empty_like(base))
    # Top 53 bits give a uniform double in [0, 1).
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0**-53


def word_threshold(p):
    """ceil(p * 2^53) in exact rational arithmetic: the first 53-bit value not below p."""
    return math.ceil(Fraction(p) * 2**53)


def edge_probabilities():
    ulp = 2.0**-53
    ps = [0.0, 5e-324, ulp, 0.5, 1.0 - ulp, 1.0]
    for k in (1, 3, 1000, 2**20 + 1, 2**52 - 1, 2**52 + 3, 2**53 - 1):
        x = k * ulp
        ps += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
    # the class thresholds (1 - f)/2 and 2 (1 - f)/2, computed as the kernel does
    for f in (0.0, 0.1, 0.5, math.nextafter(0.0, 1.0)):
        half_info = 0.5 * (1.0 - f)
        ps += [half_info, 2.0 * half_info]
    return ps


@pytest.mark.parametrize("p", edge_probabilities())
def test_threshold_draws_match_float_uniforms(p):
    rng = np.random.default_rng(2014)
    base = rng.integers(0, 2**64, size=2**16, dtype=np.uint64, endpoint=False)
    for slot in range(6):
        words = _words(base, slot, np.empty_like(base), np.empty_like(base))
        below = _below(words, p, np.empty(words.shape, dtype=bool))
        assert np.array_equal(below, uniforms_oracle(base, slot) < p)
    # words on the edge of the threshold, where the float and integer tests
    # would part first
    t = word_threshold(p)
    edge = [(t * 2**11 + d) & MASK64 for d in (-1, 0, 1)]
    expected = [(z >> 11) * 2.0**-53 < p for z in edge]
    assert _below(np.array(edge, dtype=np.uint64), p, np.empty(3, dtype=bool)).tolist() == expected


@st.composite
def probability_and_word(draw):
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    if draw(st.booleans()):
        z = draw(st.integers(min_value=0, max_value=MASK64))
    else:
        z = (word_threshold(p) * 2**11 + draw(st.integers(-2, 2))) & MASK64
    return p, z


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(probability_and_word())
def test_threshold_decision_matches_float_uniform(case):
    p, z = case
    below = _below(np.array([z], dtype=np.uint64), p, np.empty(1, dtype=bool))
    assert bool(below[0]) == ((z >> 11) * 2.0**-53 < p)


def test_tallies_do_not_depend_on_the_chunk_size(monkeypatch):
    p = params(0.2)
    runs = []
    for chunk_bits in (10, 16, 20):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1 << chunk_bits)
        runs.append(
            (
                golden_range(simulate_active_attack, p, 20.0, F),
                golden_range(simulate_no_attack, p, 20.0, F),
            )
        )
    assert runs[0] == runs[1] == runs[2]


def scalar_simulate(f, p_bob, p_eve, beta, n, seed, first):
    """Tallies of pulses [first, first + n), one pulse at a time, in Python ints and floats.

    The pulse model as the module docstring states it, not the kernel's
    integer thresholds: draw slot s of pulse i succeeds when the uniform
    (z >> 11) * 2**-53 of z, SplitMix64 of seed + (8i + 1 + s) * golden, is
    below p. The class draw picks bit0, bit1 or a decoy; Eve measures each
    occupied slot and blocks if all were inconclusive; Bob measures each
    occupied slot unless she blocked.
    """

    def draw(i, slot, p):
        return (splitmix64_stream_seed(seed, 8 * i + slot) >> 11) * 2.0**-53 < p

    counts = {name: [0] * len(ClassTally._fields) for name in TrialStats._fields}
    for i in range(first, first + n):
        if draw(i, 0, 0.5 * (1.0 - f)):
            name, slots = "bit0", (0,)
        elif draw(i, 0, 1.0 - f):
            name, slots = "bit1", (1,)
        else:
            name, slots = "decoy", (0, 1)
        eve = any(draw(i, 1 + s, p_eve) for s in slots)
        blocked = not eve and draw(i, 3, beta)
        clicks = 0 if blocked else sum(draw(i, 4 + s, p_bob) for s in slots)
        outcome = (True, eve, blocked, clicks == 1, clicks == 2, eve and clicks > 0)
        counts[name] = [c + hit for c, hit in zip(counts[name], outcome)]
    return TrialStats(*(ClassTally(*counts[name]) for name in TrialStats._fields))


# The kernel's branches: (params, length, decoy fraction, mu_e) of an
# attacked run and its lossy-line baseline.
KERNEL_BRANCHES = {
    "default": (params(0.2), 20.0, F, None),
    "no-decoys": (params(0.2), 20.0, 0.0, None),
    "cap": (params(0.5), 60.0, F, None),
    "blocking-without-eve": (params(0.2), 20.0, F, 0.0),
    "full-budget": (params(0.2), 5.0, F, None),
    "bright-half-decoys": (params(1.0), 40.0, 0.5, None),
}


def scalar_streams(p, length, f, mu_e, n, seed, first):
    """scalar_simulate's attacked and lossy-line tallies, with the simulators' probabilities."""
    plan = active_plan(p, length, mu_e)
    p_bob = -math.expm1(-plan.mu_b_prime)
    p_lossy = -math.expm1(-channel_point(p, length).mu_b)
    beta = plan.p_block
    return (
        scalar_simulate(f, p_bob, plan.p_conc_inf, beta, n, seed, first),
        scalar_simulate(f, p_lossy, 0.0, 0.0, n, seed, first),
    )


@pytest.mark.parametrize("branch", KERNEL_BRANCHES)
def test_tallies_match_the_scalar_pulse_model(branch):
    # 4,096 pulses from pulse 2^16 - 1000, bit for bit, at three seeds
    p, length, f, mu_e = KERNEL_BRANCHES[branch]
    n, first = 4096, 2**16 - 1000
    for seed in (2016, 0, 2**64 - 1):
        attacked = pulse_range(
            lambda m: simulate_active_attack(p, length, f, m, seed, mu_e=mu_e), first, n
        )
        lossy = pulse_range(lambda m: simulate_no_attack(p, length, f, m, seed), first, n)
        assert (attacked, lossy) == scalar_streams(p, length, f, mu_e, n, seed, first), seed


def test_chunked_tallies_match_the_scalar_pulse_model(monkeypatch):
    # chunks of 1,000 pulses: the runs of 2^16 + 3096 and 2^16 - 1000 pulses
    # end in chunks of 632 and 536, and four boundaries fall inside the range
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    p, length, f, mu_e = KERNEL_BRANCHES["default"]
    n, first = 4096, 2**16 - 1000
    attacked = pulse_range(lambda m: simulate_active_attack(p, length, f, m, 7), first, n)
    lossy = pulse_range(lambda m: simulate_no_attack(p, length, f, m, 7), first, n)
    assert (attacked, lossy) == scalar_streams(p, length, f, mu_e, n, 7, first)


def test_simulation_memory_stays_chunk_sized():
    # 2^20 pulses in chunks of 2^16 peak near 2.0 MiB; one chunk of 2^20 near 32 MiB
    p = params(0.2)
    tracemalloc.start()
    try:
        simulate_active_attack(p, 20.0, F, 2**20, SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_kernel_rows_start_on_cache_lines():
    # word rows at 16 or 48 mod 64 bytes made the kernel about 11% slower than at 0 or 32
    words, masks = _buffers(SEED, montecarlo._CHUNK)
    assert [row.ctypes.data % 64 for row in (*words, *masks)] == [0] * 11
    assert not masks.any()


def test_beam_splitter_arms_are_independent():
    # chi-square independence of Eve's and Bob's raw click indicators on
    # information pulses, 1% level (critical value 6.635 at one dof)
    p = params(0.2)
    plan = active_plan(p, 20.0)
    is_info, _, eve, _, bob_raw_early, bob_raw_late = _pulse_outcomes(
        F,
        -math.expm1(-plan.mu_b_prime),
        -math.expm1(-plan.mu_e),
        plan.p_block,
        *_buffers(SEED, N),
    )
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
# blocking at the cap


def test_capped_plan_with_decoys_blocks_everything_inconclusive():
    # b sits at its cap 1 - p_conc_inf: every inconclusive pulse is
    # blocked, decoys included, and Eve knows every delivered sifted bit
    p = params(0.5)
    plan = active_plan(p, 60.0)
    assert plan.block_fraction == 1.0 - plan.p_conc_inf
    assert plan.p_block == 1.0
    stats = simulate_active_attack(p, 60.0, F, 200_000, SEED)
    for tally in stats:
        assert tally.blocked == tally.sent - tally.eve_conclusive
    info = stats.info
    assert info.eve_conclusive_bob_click == info.bob_click > 0


def test_plan_forwarding_above_the_source_is_rejected_at_tiny_intensity():
    # Every check on mu_e scales with mu: at mu = 1e-10 an absolute
    # tolerance of 1e-9 would let Eve divert, or forward, 3x the source.
    p = params(1e-10)
    assert pulses(simulate_active_attack(p, 40.0, F, 1000, SEED)) == 1000
    for mu_e in (3e-10, -2e-10):  # the second forwards mu - mu_e = 3e-10
        with pytest.raises(ValueError, match="mu_e"):
            simulate_active_attack(p, 40.0, F, 1000, SEED, mu_e=mu_e)


@pytest.mark.parametrize("mu_e", [1.0, math.nan], ids=["over_budget", "nan"])  # budget 0.12
def test_simulators_reject_a_diverted_intensity_outside_the_budget(mu_e):
    p = params(0.2)
    with pytest.raises(ValueError, match="mu_e"):
        simulate_active_attack(p, 20.0, F, 1000, SEED, mu_e=mu_e)
    with pytest.raises(ValueError, match="mu_e"):
        decoy_distortion(p, 20.0, F, 1000, SEED, mu_e=mu_e)


def exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
# the full budget forwards mu_b itself, also where mu - mu_e_max cancels
@example(mu=0.2, f=0.1, delta=0.2, length=1000.0, share=1.0)
@example(mu=0.2, f=0.1, delta=0.2, length=20000.0, share=1.0)
@given(
    mu=exp10(-300, 3),
    f=st.floats(0.0, 0.999),
    delta=exp10(-2, 1),
    length=st.floats(0.0, 3e4),
    share=st.none() | st.just(1.0) | st.floats(0.0, 1.0),
)
def test_simulator_accepts_every_plan_active_plan_builds(mu, f, delta, length, share):
    p = params(mu, delta=delta)
    mu_e = None if share is None else share * channel_point(p, length).mu_e_max
    assert pulses(simulate_active_attack(p, length, f, 64, SEED, mu_e=mu_e)) == 64


def test_capped_plan_without_decoys_blocks_everything_inconclusive():
    p = params(0.5)
    plan = active_plan(p, 60.0)
    assert plan.p_block == 1.0
    stats = simulate_active_attack(p, 60.0, 0.0, 200_000, SEED)
    info = stats.info
    assert info.blocked == info.sent - info.eve_conclusive
    # every delivered sifted bit is known to Eve
    assert info.eve_conclusive_bob_click == info.bob_click


# ---------------------------------------------------------------------------
# detection-pattern probabilities and the distortion report


def test_pattern_probabilities_no_attack_formulas():
    p = params(0.2)
    point = channel_point(p, 20.0)
    x = math.exp(-point.mu_b)
    pat = _pattern_probabilities(-math.expm1(-point.mu_b), 0.0, 0.0)
    assert pat["bit0"][0] == pytest.approx(x, abs=1e-15)
    assert pat["bit0"][1] == pytest.approx(1.0 - x, abs=1e-15)
    assert pat["bit0"][2] == 0.0
    assert pat["decoy"][0] == pytest.approx(x * x, abs=1e-15)
    assert pat["decoy"][1] == pytest.approx(2.0 * x * (1.0 - x), abs=1e-15)
    assert pat["decoy"][2] == pytest.approx((1.0 - x) ** 2, abs=1e-15)
    for cls in pat.values():
        assert sum(cls) == pytest.approx(1.0, abs=1e-14)


def test_pattern_probabilities_attack_formulas():
    p = params(0.2)
    plan = active_plan(p, 20.0)
    beta = plan.p_block
    q = -math.expm1(-plan.mu_b_prime)
    pat = _pattern_probabilities(q, plan.block_fraction, math.exp(-2.0 * plan.mu_e) * beta)
    survive_decoy = 1.0 - math.exp(-2.0 * plan.mu_e) * beta
    assert pat["decoy"][2] == pytest.approx(survive_decoy * q * q, abs=1e-15)
    survive_info = 1.0 - math.exp(-plan.mu_e) * beta
    assert pat["bit0"][1] == pytest.approx(survive_info * q, abs=1e-15)
    for cls in pat.values():
        assert sum(cls) == pytest.approx(1.0, abs=1e-14)


def test_distortion_flags_decoy_double_for_half_intensity_plan():
    p = params(0.2)
    plan = active_plan(p, 20.0)
    assert plan.mu_e == 0.1  # mu/2 branch, forwarded intensity above mu_b
    report = decoy_distortion(p, 20.0, F, N, SEED)
    flagged = {(r.pulse_class, r.pattern) for r in report.flagged_rows()}
    assert ("decoy", "double") in flagged
    # empirical attack frequencies agree with the policy closed forms
    for row in report.rows:
        n_class = round(N * (0.1 if row.pulse_class == "decoy" else 0.45))
        se = math.sqrt(max(row.expected_attack * (1 - row.expected_attack), 1e-12) / n_class)
        assert abs(row.observed_attack - row.expected_attack) <= 4.0 * se, row


def test_distortion_silent_for_full_budget_plan():
    p = params(0.2)
    point = channel_point(p, 20.0)
    report = decoy_distortion(p, 20.0, F, N, SEED, mu_e=point.mu_e_max)
    assert not report.flagged_rows()
    # nothing distorted beyond statistical noise
    assert max(abs(r.z_observed) for r in report.rows) < 5.0
    for row in report.rows:
        assert row.expected_attack == pytest.approx(row.expected_no_attack, abs=1e-15)


def test_distortion_report_without_decoys_has_no_decoy_rows():
    report = decoy_distortion(params(0.2), 20.0, 0.0, 100_000, SEED)
    assert {r.pulse_class for r in report.rows} == {"bit0", "bit1"}


def test_distortion_z_is_nan_for_a_class_no_pulse_fell_in():
    # one pulse: the classes it missed observe nothing, so their observed
    # rates and z are NaN, and none is flagged
    p = params(0.2)
    attacked = simulate_active_attack(p, 20.0, F, 1, SEED)
    report = decoy_distortion(p, 20.0, F, 1, SEED)
    assert len(report.rows) == 9
    for row in report.rows:
        empty = getattr(attacked, row.pulse_class).sent == 0
        assert math.isnan(row.observed_attack) == empty
        assert math.isnan(row.z_observed) == empty, row
        assert not row.flagged
    # the pulse is a bit1, whose double click cannot happen and did not: z stays 0
    assert attacked.bit1.sent == 1
    double = report.rows[5]
    assert (double.pulse_class, double.pattern) == ("bit1", "double")
    assert double.expected_attack == double.observed_attack == double.z_observed == 0.0


# ---------------------------------------------------------------------------
# tally bookkeeping


def test_tallies_add_counts_rather_than_concatenating():
    a = ClassTally(1, 2, 3, 4, 5, 6)
    b = ClassTally(10, 20, 30, 40, 50, 60)
    assert a + b == ClassTally(11, 22, 33, 44, 55, 66) and type(a + b) is ClassTally


def test_trial_stats_merge_adds_counts():
    # info merges the two information classes' tallies
    stats = TrialStats(bit0=ClassTally(sent=4), bit1=ClassTally(sent=2))
    assert stats.info == ClassTally(sent=6)
