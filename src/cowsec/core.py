"""Mathematical primitives for coherent-state QKD security analysis.

Everything here is a pure function of its arguments: fibre attenuation,
coherent-state overlaps, the binary entropy and its inverse on the lower
branch, and the Holevo bound for a pair of equiprobable pure states.
Information quantities are in bits (base-2 logarithms throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ProtocolParams",
    "ChannelPoint",
    "channel_point",
    "attenuate",
    "binary_entropy",
    "binary_entropy_inverse",
    "coherent_pair_overlap",
    "holevo_two_pure",
]


@dataclass(frozen=True)
class ProtocolParams:
    """Legitimate-user configuration of the COW link.

    mu is the source intensity (mean photon number of the occupied time
    slot), decoy_fraction the probability that a transmitted pulse pair is
    a decoy, and delta the fibre attenuation coefficient in dB/km.
    """

    mu: float
    decoy_fraction: float = 0.1
    delta: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"source intensity must be positive and finite, got {self.mu}")
        if not 0.0 <= self.decoy_fraction < 1.0:
            raise ValueError(
                f"decoy fraction must lie in [0, 1), got {self.decoy_fraction}"
            )
        if not 0 < self.delta < math.inf:
            raise ValueError(
                f"attenuation coefficient must be positive and finite, got {self.delta}"
            )


@dataclass(frozen=True)
class ChannelPoint:
    """Intensities seen at one channel length.

    mu_b is what Bob expects after fibre loss; mu_e_max is the largest
    intensity an eavesdropper can divert while replacing the fibre with a
    lossless line (mu_b + mu_e_max = mu).
    """

    length_km: float
    mu_b: float
    mu_e_max: float


def channel_point(params: ProtocolParams, length_km: float) -> ChannelPoint:
    """Derive Bob's intensity and the divertable budget at a given length."""
    mu_b = attenuate(params.mu, params.delta, length_km)
    return ChannelPoint(length_km=length_km, mu_b=mu_b, mu_e_max=params.mu - mu_b)


def attenuate(mu: float, delta: float, length_km: float) -> float:
    """Intensity after length_km of fibre with loss delta dB/km.

    Returns mu * 10**(-delta*length_km/10).
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"intensity must be positive and finite, got {mu}")
    if not 0 < delta < math.inf:
        raise ValueError(f"attenuation coefficient must be positive and finite, got {delta}")
    if not 0 <= length_km < math.inf:
        raise ValueError(f"channel length must be non-negative and finite, got {length_km}")
    return mu * 10.0 ** (-delta * length_km / 10.0)


def binary_entropy(q: float) -> float:
    """Binary entropy h2(q) in bits, with the convention 0*log2(0) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_entropy_inverse(y: float) -> float:
    """Inverse of the binary entropy on its increasing branch.

    Returns the unique q in [0, 1/2] with h2(q) = y. Plain bisection: the
    branch is monotone and the endpoints are flat, so derivative-based
    root finders gain nothing here. Stops when the bracket holds adjacent floats.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"entropy value must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval narrowed to adjacent floats
            return mid
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid


def _binomial_se(p: float, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a rate p over n trials; NaN when n is 0."""
    return math.sqrt(p * (1.0 - p) / n) if n else math.nan


def coherent_pair_overlap(mu_e: float) -> float:
    """Overlap of the two single-slot coherent states an eavesdropper holds.

    The bit-0 and bit-1 states differ by which of the two time slots
    carries the pulse, so the inner product factorises into two
    coherent-vacuum overlaps of exp(-mu_e/2) each, giving exp(-mu_e).
    """
    if not mu_e >= 0:
        raise ValueError(f"intensity must be non-negative, got {mu_e}")
    return math.exp(-mu_e)


def holevo_two_pure(overlap: float) -> float:
    """Holevo bound in bits for two equiprobable pure states.

    The equal-weight mixture of two pure states with absolute overlap s
    has eigenvalues (1 +/- s)/2, so its von Neumann entropy, and hence the
    extractable information, is h2((1+s)/2). Equals 1 for orthogonal
    states and 0 for identical ones.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    return binary_entropy(0.5 * (1.0 + overlap))
