"""Core primitives against independent oracles.

Frozen expected values were computed with mpmath at 50 decimal digits;
the formula used is quoted next to each constant. Structural oracles
(Fock-basis inner product, Gram-basis eigendecomposition) are built here
from first principles and never call the code under test.
"""

import math

import numpy as np
import pytest

from cowsec.core import (
    ChannelPoint,
    ProtocolParams,
    attenuate,
    binary_entropy,
    binary_entropy_inverse,
    channel_point,
    coherent_pair_overlap,
    holevo_two_pure,
)

# mpmath, 50 dps: 0.2 * 10**(-0.2*30/10)
ATTENUATE_02_02_30 = 0.050237728630191602222
# mpmath, 50 dps: -q*log2(q) - (1-q)*log2(1-q) at q = 0.25
H2_QUARTER = 0.81127812445913286391
# mpmath, 50 dps: exp(-0.45)
OVERLAP_045 = 0.63762815162177329314


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


# ---------------------------------------------------------------------------
# attenuation


def test_attenuate_zero_length_is_identity():
    assert attenuate(0.5, 0.2, 0.0) == 0.5


def test_attenuate_exact_decade():
    # exponent is exactly -1
    assert attenuate(0.5, 0.2, 50.0) == 0.05


def test_attenuate_frozen_value():
    assert attenuate(0.2, 0.2, 30.0) == pytest.approx(ATTENUATE_02_02_30, rel=1e-14)


def test_attenuate_strictly_decreasing_in_length():
    values = [attenuate(0.3, 0.2, l) for l in np.linspace(0, 120, 60)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.5])
@pytest.mark.parametrize("delta", [0.15, 0.2, 0.35])
@pytest.mark.parametrize("l1,l2", [(0.0, 7.3), (3.7, 12.9), (25.0, 55.0)])
def test_attenuate_multiplicative_in_length(mu, delta, l1, l2):
    combined = attenuate(mu, delta, l1 + l2)
    chained = attenuate(attenuate(mu, delta, l1), delta, l2)
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
    with pytest.raises(ValueError):
        attenuate(mu, delta, l)


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
    assert point == ChannelPoint(length_km=50.0, mu_b=0.05, mu_e_max=0.45)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu": 0.0},
        {"mu": -0.2},
        {"mu": 0.5, "decoy_fraction": -0.01},
        {"mu": 0.5, "decoy_fraction": 1.0},
        {"mu": 0.5, "delta": 0.0},
        {"mu": math.nan},
        {"mu": math.inf},
        {"mu": 0.5, "decoy_fraction": math.nan},
        {"mu": 0.5, "delta": math.nan},
        {"mu": 0.5, "delta": math.inf},
    ],
)
def test_protocol_params_validation(kwargs):
    with pytest.raises(ValueError):
        ProtocolParams(**kwargs)


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


# ---------------------------------------------------------------------------
# overlaps and the Holevo bound


def test_overlap_identical_states():
    assert coherent_pair_overlap(0.0) == 1.0


def test_overlap_asymptotic_orthogonality():
    assert coherent_pair_overlap(800.0) == pytest.approx(0.0, abs=1e-300)


def test_overlap_frozen_value():
    assert coherent_pair_overlap(0.45) == pytest.approx(OVERLAP_045, abs=1e-15)


@pytest.mark.parametrize("mu_e", [0.0, 0.05, 0.45, 1.0, 2.0])
def test_overlap_matches_fock_oracle(mu_e):
    assert coherent_pair_overlap(mu_e) == pytest.approx(fock_pair_overlap(mu_e), abs=1e-14)


def test_overlap_domain():
    with pytest.raises(ValueError):
        coherent_pair_overlap(-0.1)
    with pytest.raises(ValueError):
        coherent_pair_overlap(math.nan)


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
    values = [holevo_two_pure(coherent_pair_overlap(x)) for x in np.linspace(0.0, 3.0, 301)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("s", [-0.1, 1.0 + 1e-9])
def test_holevo_domain(s):
    with pytest.raises(ValueError):
        holevo_two_pure(s)
