"""Mathematical primitives for coherent-state QKD security analysis.

Everything here is a pure function of its arguments: the fibre
transmittance, the binary entropy and its inverse on the lower branch,
and the Holevo bound for a pair of equiprobable pure states.
Information quantities are in bits (base-2 logarithms throughout).
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, NamedTuple

__all__ = [
    "ProtocolParams",
    "ChannelPoint",
    "channel_point",
    "transmittance",
    "binary_entropy",
    "binary_entropy_inverse",
    "holevo_two_pure",
]

# Bound once: the entropy inverse runs these on every step.
_log2 = math.log2
_sqrt = math.sqrt
_LN2 = math.log(2.0)
# Half-width of the rounding band of float h2 at y, per unit of y (see _root_cell).
_BAND_EPS = 16.0 * sys.float_info.epsilon


class _ProtocolParamsFields(NamedTuple):
    mu: float
    delta: float


class ProtocolParams(_ProtocolParamsFields):
    """Legitimate-user configuration of the COW link.

    mu is the source intensity (mean photon number of the occupied time
    slot) and delta the fibre attenuation coefficient in dB/km. Checked on
    construction, also through _replace and _make. The closed forms need
    nothing else; the decoy fraction enters only the pulse-level simulator,
    which takes it as an argument of its own.
    """

    __slots__ = ()

    def __new__(cls, mu: float, delta: float = 0.2) -> ProtocolParams:
        if not 0 < mu < math.inf:
            raise ValueError(f"source intensity must be positive and finite, got {mu}")
        if not 0 < delta < math.inf:
            raise ValueError(f"attenuation coefficient must be positive and finite, got {delta}")
        return super().__new__(cls, mu, delta)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> ProtocolParams:  # _replace builds through _make
        return cls(*iterable)


class ChannelPoint(NamedTuple):
    """Intensities seen at one channel length.

    mu_b is what Bob expects after fibre loss; mu_e_max is the largest
    intensity an eavesdropper can divert while replacing the fibre with a
    lossless line (mu_b + mu_e_max = mu).
    """

    mu_b: float
    mu_e_max: float


def channel_point(params: ProtocolParams, length_km: float) -> ChannelPoint:
    """Derive Bob's intensity and the divertable budget at a given length."""
    mu_b = params.mu * transmittance(params.delta, length_km)
    return ChannelPoint(mu_b, params.mu - mu_b)


def transmittance(delta: float, length_km: float) -> float:
    """Share of the intensity left after length_km of fibre with loss delta dB/km.

    Returns 10**(-delta*length_km/10).
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"attenuation coefficient must be positive and finite, got {delta}")
    if not 0 <= length_km < math.inf:
        raise ValueError(f"channel length must be non-negative and finite, got {length_km}")
    return 10.0 ** (-delta * length_km / 10.0)


def binary_entropy(q: float) -> float:
    """Binary entropy h2(q) in bits, with the convention 0*log2(0) = 0."""
    if 0.0 < q < 1.0:
        return -q * _log2(q) - (1.0 - q) * _log2(1.0 - q)
    if q == 0.0 or q == 1.0:
        return 0.0
    raise ValueError(f"probability must lie in [0, 1], got {q}")


def binary_entropy_inverse(y: float) -> float:
    """Inverse of the binary entropy on its increasing branch.

    Returns the q in [0, 1/2] with h2(q) = y that bisection of [0, 1/2] on
    the predicate binary_entropy(mid) < y reaches when its bracket holds
    adjacent floats. The bisection only starts late, so the bits are those
    of bisecting from [0, 1/2], at a mean of 13.4 evaluations of
    binary_entropy for y uniform in [0, 1] where bisecting from [0, 1/2]
    takes about 55.

    A safeguarded Halley iteration on the float h2 (Halley's step inside
    the Newton-bisection hybrid rtsafe, Press et al., Numerical Recipes,
    3rd ed., section 9.4) locates the root q. Outside a band of half-width
    w around q the float predicate agrees with exact h2, so every bisection
    midpoint coarser than the smallest aligned dyadic cell holding the band
    lies outside the band, and bisection from [0, 1/2] passes through that
    cell. The bisection starts from the cell once binary_entropy confirms
    the decisions taken at its ends, h2(lo) < y <= h2(hi); otherwise, and
    for y below 1e-280, it starts from [0, 1/2].
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"entropy value must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    if 1e-280 <= y:
        lo, hi = _root_cell(y)
        if binary_entropy(lo) < y <= binary_entropy(hi):
            return _bisect(y, lo, hi)
    return _bisect(y, 0.0, 0.5)


def _root_cell(y: float) -> tuple[float, float]:
    """Smallest aligned dyadic cell of [0, 1/2] holding the rounding band of h2(q) = y."""
    # With a faithful log2, float h2 lies within 2*eps*y of h2 computed
    # exactly from the rounded 1 - q, which is non-decreasing below q = 1/e
    # and within eps/2 of exact h2 everywhere. So outside q +- w, with
    # w = (16*eps*y + 2|res|) / h2'(q) and res the residual at q, the float
    # predicate binary_entropy(m) < y is exact with a margin of nearly 3.
    # The band is also at least 32*eps*q wide, so every bisection midpoint
    # down to the cell is an exact float.
    tol = _BAND_EPS * y
    # Starting points that are accurate for small y and for y near 1.
    q = max(y / (_log2(1.0 / y) + 4.0), 0.5 - 0.5 * _sqrt(1.0 - y ** (4.0 / 3.0)))
    a, b = 0.0, 0.5  # bracket with h2(a) < y <= h2(b)
    step = math.inf
    while True:
        res = binary_entropy(q) - y
        slope = _log2((1.0 - q) / q)
        newton = res / slope
        # Stop when converged, or when the steps stop halving: float h2 has
        # jumps of up to 0.7 eps where the rounding of 1 - q changes, and
        # Newton cannot settle closer than a jump to a root inside one.
        if abs(res) <= tol or abs(newton) > 0.5 * abs(step):
            break
        if res < 0.0:
            a = q
        else:
            b = q
        # Halley's step divides Newton's by 1 - newton*h2''/(2 h2'), with
        # h2'' = -1/(q(1-q) ln 2), which costs no log. Where that divisor
        # leaves [1/2, 2] (far from the root) Newton's step is taken as is,
        # so the step never changes sign and never divides by zero.
        divisor = 1.0 + 0.5 * newton / (slope * q * (1.0 - q) * _LN2)
        step = newton / divisor if 0.5 <= divisor <= 2.0 else newton
        q -= step
        if not a < q < b:
            q = 0.5 * (a + b)
    w = (tol + 2.0 * abs(res)) / slope
    lo_band, hi_band = max(q - w, 0.0), min(q + w, 0.5)
    width = 2.0 ** math.ceil(_log2(hi_band - lo_band))
    while True:
        lo = math.floor(lo_band / width) * width
        if hi_band <= lo + width:
            return lo, lo + width
        width *= 2.0


def _bisect(y: float, lo: float, hi: float) -> float:
    """Bisect binary_entropy(q) < y on [lo, hi] until the bracket holds adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid


def _binomial_se(p: float, n: int) -> float:
    """Standard error sqrt(p(1-p)/n) of a rate p over n trials; NaN when n is 0."""
    return math.sqrt(p * (1.0 - p) / n) if n else math.nan


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
