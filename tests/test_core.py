"""Core primitives against independent oracles.

Frozen expected values were computed with mpmath at 50 decimal digits;
the formula used is quoted next to each constant. Structural oracles
(Fock-basis inner product, Gram-basis eigendecomposition) are built here
from first principles and never call the code under test.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cowsec.core
from cowsec.attacks import bs_attack, critical_length
from cowsec.core import (
    ChannelPoint,
    ProtocolParams,
    binary_entropy,
    binary_entropy_inverse,
    channel_point,
    holevo_two_pure,
    transmittance,
)

# mpmath, 50 dps: 0.2 * 10**(-0.2*30/10)
MU_B_02_02_30 = 0.050237728630191602222
# mpmath, 50 dps: -q*log2(q) - (1-q)*log2(1-q) at q = 0.25
H2_QUARTER = 0.81127812445913286391
# mpmath, 50 dps: h2((1 + exp(-0.45))/2)
HOLEVO_OVERLAP_045 = 0.68266454384189751288


# ---------------------------------------------------------------------------
# oracles


def fock_pair_overlap(mu_e: float, cutoff: int = 40) -> float:
    """Inner product of the two single-slot coherent states, number basis.

    Amplitudes of |sqrt(mu_e)> truncated at `cutoff` photons; the two-mode
    inner product factorises into <alpha|0><0|alpha>. Truncation tail mass
    stays below 1e-15 for mu_e <= 2.
    """
    n = np.arange(cutoff + 1)
    log_amp = -mu_e / 2.0 + 0.5 * (n * np.log(mu_e) if mu_e > 0 else np.zeros_like(n, dtype=float))
    log_amp -= 0.5 * np.array([math.lgamma(k + 1) for k in n])
    amps = np.exp(log_amp)
    if mu_e == 0.0:
        amps = np.zeros(cutoff + 1)
        amps[0] = 1.0
    assert abs(np.dot(amps, amps) - 1.0) < 1e-14, "truncation tail too heavy"
    vacuum = np.zeros(cutoff + 1)
    vacuum[0] = 1.0
    return float(np.dot(amps, vacuum) * np.dot(vacuum, amps))


def holevo_eigen_oracle(s: float) -> float:
    """Entropy of the equal mixture of two pure states with overlap s.

    The states are expressed in an orthonormal basis built by Gram-Schmidt,
    the 2x2 density matrix is diagonalised numerically and its entropy
    summed; no closed-form eigenvalues are used.
    """
    if s == 1.0:
        return 0.0  # identical states, pure mixture
    v0 = np.array([1.0, 0.0])
    v1 = np.array([s, math.sqrt(1.0 - s * s)])
    rho = 0.5 * (np.outer(v0, v0) + np.outer(v1, v1))
    eigenvalues = np.linalg.eigvalsh(rho)
    return float(-sum(lam * math.log2(lam) for lam in eigenvalues if lam > 1e-300))


def entropy_inverse_oracle(y: float, iterations: int = 80) -> float:
    """Reference bisection for the increasing entropy branch on [0, 1/2]."""
    lo, hi = 0.0, 0.5
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def adjacent_float_bisection(y: float, h2=binary_entropy) -> float:
    """Bit-exact oracle: bisection of h2(mid) < y from [0, 1/2] down to adjacent floats.

    This is binary_entropy_inverse as it was before it started the bisection
    from a cell found by Newton's method.
    """
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if h2(mid) < y:
            lo = mid
        else:
            hi = mid


def entropy_values(stratum: str, n: int, seed: int) -> list:
    """n seeded values of y in [0, 1] from one stratum."""
    rng = random.Random(f"{stratum}:{seed}")
    if stratum == "uniform":
        return [rng.random() for _ in range(n)]
    if stratum == "log_uniform":
        return [10.0 ** -rng.uniform(0.0, 300.0) for _ in range(n)]
    if stratum == "near_one":
        return [1.0 - 10.0 ** -rng.uniform(0.0, 16.0) for _ in range(n)]
    if stratum == "above_0999":
        return [1.0 - 10.0 ** -rng.uniform(3.0, 16.0) for _ in range(n)]
    if stratum == "subnormal":
        return [rng.random() * sys.float_info.min for _ in range(n)]
    assert stratum == "dyadic", stratum
    # h2 at x = k * 2^-m (k odd), a bisection midpoint, and at the four
    # floats on each side of it: the band around the root straddles the
    # midpoint, so the cell is coarse or its check fails.
    ys = []
    while len(ys) < n:
        m = rng.randint(2, 60)
        x = (2 * rng.randrange(min(2 ** (m - 2), 2**52)) + 1) * 2.0**-m
        below = above = x
        ys.append(binary_entropy(x))
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            ys += [binary_entropy(below), binary_entropy(above)]
    return ys[:n]


def inverse_mismatches(ys) -> list:
    """The values of ys whose inverse differs in any bit from the oracle's."""
    return [y for y in ys if binary_entropy_inverse(y) != adjacent_float_bisection(y)]


# ---------------------------------------------------------------------------
# attenuation


def test_attenuate_zero_length_is_identity():
    assert transmittance(0.2, 0.0) == 1.0


def test_attenuate_exact_decade():
    # exponent is exactly -1
    assert 0.5 * transmittance(0.2, 50.0) == 0.05


def test_attenuate_frozen_value():
    assert 0.2 * transmittance(0.2, 30.0) == pytest.approx(MU_B_02_02_30, rel=1e-14)


def test_attenuate_strictly_decreasing_in_length():
    values = [transmittance(0.2, l) for l in np.linspace(0, 120, 60)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.5])
@pytest.mark.parametrize("delta", [0.15, 0.2, 0.35])
@pytest.mark.parametrize("l1,l2", [(0.0, 7.3), (3.7, 12.9), (25.0, 55.0)])
def test_attenuate_multiplicative_in_length(mu, delta, l1, l2):
    # Bob's intensity after l1 + l2 is the one after l1 sent through l2 more
    combined = channel_point(ProtocolParams(mu, delta), l1 + l2).mu_b
    halfway = channel_point(ProtocolParams(mu, delta), l1).mu_b
    chained = channel_point(ProtocolParams(halfway, delta), l2).mu_b
    assert chained == pytest.approx(combined, rel=1e-12)


@pytest.mark.parametrize(
    "mu,delta,l",
    [
        (0.0, 0.2, 5.0),
        (-0.1, 0.2, 5.0),
        (0.5, 0.0, 5.0),
        (0.5, 0.2, -1.0),
        (math.nan, 0.2, 5.0),
        (math.inf, 0.2, 5.0),
        (0.5, math.nan, 5.0),
        (0.5, math.inf, 5.0),
        (0.5, 0.2, math.nan),
        (0.5, 0.2, math.inf),
    ],
)
def test_attenuate_domain_errors(mu, delta, l):
    # ProtocolParams rejects a bad mu or delta, and transmittance a bad delta or length on its own
    with pytest.raises(ValueError):
        channel_point(ProtocolParams(mu, delta), l)
    if 0 < mu < math.inf:
        with pytest.raises(ValueError):
            transmittance(delta, l)


# ---------------------------------------------------------------------------
# channel points and parameter validation


def test_channel_point_lossless_channel_has_no_budget():
    assert channel_point(ProtocolParams(mu=0.5, delta=0.2), 0.0).mu_e_max == 0.0


def test_max_withdrawable_exact_decade():
    # exponent is exactly -1, so the withdrawable budget is exactly 0.45
    assert channel_point(ProtocolParams(mu=0.5, delta=0.2), 50.0).mu_e_max == 0.45


def test_channel_point_budget_is_half_at_half_loss_length():
    # solve 10**(-delta*l/10) = 1/2 -> l = 10*log10(2)/delta
    l_half = 10.0 * math.log10(2.0) / 0.2
    point = channel_point(ProtocolParams(mu=0.1, delta=0.2), l_half)
    assert point.mu_e_max == pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("length", [0.0, 1.0, 15.0515, 40.0, 150.0])
@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5, 1.7])
def test_channel_point_invariants(mu, length):
    point = channel_point(ProtocolParams(mu=mu), length)
    assert 0.0 < point.mu_b <= mu
    assert 0.0 <= point.mu_e_max < mu or (length == 0.0 and point.mu_e_max == 0.0)
    assert abs(point.mu_b + point.mu_e_max - mu) <= math.ulp(mu)


def test_channel_point_fields():
    # exponent is exactly -1, so the budget is exactly 0.45
    point = channel_point(ProtocolParams(mu=0.5, delta=0.2), 50.0)
    assert point == ChannelPoint(mu_b=0.05, mu_e_max=0.45)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu": 0.0},
        {"mu": -0.2},
        {"mu": -math.inf},
        {"mu": 0.5, "delta": -0.2},
        {"mu": 0.5, "delta": 0.0},
        {"mu": math.nan},
        {"mu": math.inf},
        {"mu": 0.5, "delta": -math.inf},
        {"mu": 0.5, "delta": math.nan},
        {"mu": 0.5, "delta": math.inf},
    ],
)
def test_protocol_params_validation(kwargs):
    with pytest.raises(ValueError):
        ProtocolParams(**kwargs)


@pytest.mark.parametrize("kwargs", [{"mu": -1.0}, {"delta": 0.0}, {"delta": math.nan}])
def test_protocol_params_validates_through_replace_and_make(kwargs):
    # namedtuple's _replace and _make build with tuple.__new__ unless _make is overridden
    params = ProtocolParams(0.2)
    with pytest.raises(ValueError):
        params._replace(**kwargs)
    with pytest.raises(ValueError):
        ProtocolParams._make({**params._asdict(), **kwargs}.values())
    moved = params._replace(mu=0.3)
    assert moved == ProtocolParams(0.3) and type(moved) is ProtocolParams


# ---------------------------------------------------------------------------
# binary entropy and its inverse


def test_binary_entropy_endpoints_and_half():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_frozen_value():
    assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-15)


def test_binary_entropy_symmetry():
    for q in np.linspace(0.0, 0.5, 101):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1.0 - q), abs=1e-14)


@pytest.mark.parametrize("q", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(q):
    with pytest.raises(ValueError):
        binary_entropy(q)


def test_entropy_inverse_endpoints():
    assert binary_entropy_inverse(0.0) == 0.0
    assert binary_entropy_inverse(1.0) == 0.5


def test_entropy_inverse_frozen_value():
    assert binary_entropy_inverse(H2_QUARTER) == pytest.approx(0.25, abs=1e-12)


def test_entropy_inverse_matches_reference_bisection():
    for y in np.linspace(0.001, 0.999, 97):
        assert binary_entropy_inverse(y) == pytest.approx(entropy_inverse_oracle(y), abs=1e-12)


def test_entropy_round_trip_forward():
    # h2(h2inv(y)) = y on a dense grid
    for y in np.linspace(0.0, 1.0, 1000):
        q = binary_entropy_inverse(y)
        assert 0.0 <= q <= 0.5
        assert abs(binary_entropy(q) - y) <= 1e-10


def test_entropy_round_trip_backward():
    # h2inv(h2(q)) = q on the lower branch
    for q in np.linspace(0.0, 0.5, 1000):
        assert abs(binary_entropy_inverse(binary_entropy(q)) - q) <= 1e-10


@pytest.mark.parametrize("y", [1e-60, 1e-100, 1e-300])
def test_entropy_inverse_resolves_tiny_values(y):
    # the bisection must not stop before its bracket holds adjacent floats
    assert binary_entropy(binary_entropy_inverse(y)) == pytest.approx(y, rel=1e-12, abs=0)


@pytest.mark.parametrize("y", [-1e-9, 1.0 + 1e-9])
def test_entropy_inverse_domain(y):
    with pytest.raises(ValueError):
        binary_entropy_inverse(y)


# (stratum, values per case, cases): about 0.5 s per case, 10^5 values in all.
ORACLE_STRATA = [
    ("uniform", 20_000, 2),
    ("log_uniform", 2_500, 2),
    ("near_one", 15_000, 2),
    ("above_0999", 15_000, 1),
    ("subnormal", 800, 1),
    ("dyadic", 15_000, 2),
]


@pytest.mark.parametrize(
    "stratum, n, seed",
    [(name, n, seed) for name, n, cases in ORACLE_STRATA for seed in range(cases)],
)
def test_entropy_inverse_has_the_bits_of_bisection(stratum, n, seed):
    assert inverse_mismatches(entropy_values(stratum, n, seed)) == []


@pytest.mark.parametrize(
    "y",
    [0.0, 1.0, 5e-324, 1e-281, 1e-280, 0.999, math.nextafter(0.999, 1.0)]
    # the largest y below 1, and the y where _root_cell's two starting points cross
    + [math.nextafter(1.0, 0.0), 0.2750049706166742]
    + [binary_entropy(2.0**-k) for k in range(2, 61)],
)
def test_entropy_inverse_tails_and_dyadic_roots_have_the_bits_of_bisection(y):
    assert binary_entropy_inverse(y) == adjacent_float_bisection(y)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
def test_entropy_inverse_of_entropy_has_the_bits_of_bisection(q):
    y = binary_entropy(q)
    assert binary_entropy_inverse(y) == adjacent_float_bisection(y)


def mean_evaluations(monkeypatch, ys) -> float:
    """Mean binary_entropy calls per inverse, counted at the module global."""
    calls = 0

    def counting(q):
        nonlocal calls
        calls += 1
        return binary_entropy(q)

    monkeypatch.setattr(cowsec.core, "binary_entropy", counting)
    for y in ys:
        binary_entropy_inverse(y)
    return calls / len(ys)


def test_entropy_inverse_evaluation_count(monkeypatch):
    # Bisection from [0, 1/2] takes about 55 evaluations and the Halley
    # search with the cell about 13.4; the evaluations must also go through
    # the module's binary_entropy, where tracing sees them.
    assert mean_evaluations(monkeypatch, entropy_values("uniform", 10_000, seed=0)) <= 14


def test_entropy_inverse_above_0999_starts_from_the_cell(monkeypatch):
    # The band argument holds up to y = 1, so these y skip most of the
    # bisection too: about 27 evaluations, where bisecting from [0, 1/2]
    # takes 53.
    assert mean_evaluations(monkeypatch, entropy_values("above_0999", 10_000, seed=0)) <= 30


@pytest.mark.parametrize("step_bits", [4, 20])
def test_entropy_inverse_falls_back_when_the_cell_check_fails(monkeypatch, step_bits):
    # For a non-decreasing h2, a cell that passes the check holds the point
    # where the predicate flips, so bisection from it keeps the bits. A step
    # function h2 makes Newton miss that point (2^-4 steps also push Newton
    # out of its bracket); the check must then send y to the full bisection.
    scale = 2.0**step_bits

    def steps(q):
        return binary_entropy(math.floor(q * scale) / scale)

    monkeypatch.setattr(cowsec.core, "binary_entropy", steps)
    ys = [y for y in entropy_values("uniform", 2_000, seed=1) if 1e-280 <= y]
    cells = [cowsec.core._root_cell(y) for y in ys]
    assert any(not steps(lo) < y <= steps(hi) for y, (lo, hi) in zip(ys, cells))
    assert [y for y in ys if binary_entropy_inverse(y) != adjacent_float_bisection(y, steps)] == []


# ---------------------------------------------------------------------------
# overlaps and the Holevo bound


def test_overlap_frozen_value():
    # Eve's budget at the exact decade is exactly 0.45, and her states overlap by exp(-0.45)
    assert bs_attack(ProtocolParams(0.5), 50.0).i_ae == pytest.approx(HOLEVO_OVERLAP_045, abs=1e-15)


@pytest.mark.parametrize("mu_e", [0.0, 0.05, 0.45, 1.0, 2.0])
def test_overlap_matches_fock_oracle(mu_e):
    # Eve's budget is nothing at 0 km and half the source at the critical length
    p = ProtocolParams(2.0 * mu_e if mu_e else 0.5)
    length = critical_length(p.delta) if mu_e else 0.0
    budget = channel_point(p, length).mu_e_max
    assert budget == pytest.approx(mu_e, abs=1e-15)
    oracle = holevo_two_pure(fock_pair_overlap(budget))
    assert bs_attack(p, length).i_ae == pytest.approx(oracle, abs=1e-13)


def test_holevo_endpoints_exact():
    assert holevo_two_pure(1.0) == 0.0
    assert holevo_two_pure(0.0) == 1.0


def test_holevo_frozen_value():
    assert holevo_two_pure(0.5) == pytest.approx(H2_QUARTER, abs=1e-15)


def test_holevo_matches_eigen_oracle_on_grid():
    for s in np.linspace(0.0, 1.0, 1000):
        assert abs(holevo_two_pure(s) - holevo_eigen_oracle(s)) <= 1e-12


def test_holevo_monotone_decreasing_in_overlap():
    values = [holevo_two_pure(s) for s in np.linspace(0.0, 1.0, 301)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_holevo_of_overlap_monotone_in_intensity():
    # more diverted light -> smaller overlap -> more extractable information
    values = [holevo_two_pure(math.exp(-x)) for x in np.linspace(0.0, 3.0, 301)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("s", [-0.1, 1.0 + 1e-9])
def test_holevo_domain(s):
    with pytest.raises(ValueError):
        holevo_two_pure(s)
