"""Security of the COW quantum key distribution protocol against
beam-splitting eavesdropping.

The library computes, per channel length, how much information an
eavesdropper extracts with the passive beam-splitting attack (collective
decoding at the Holevo bound) and with the active variant (immediate
threshold measurements plus selective blocking of inconclusive pulses),
the critical QBER each attack implies, the optimal working points for
both sides, and cross-validates every closed-form rate with a
pulse-level Monte Carlo simulator.

Modules:
    core        attenuation, entropies, overlaps, Holevo bound
    attacks     the two attack analyses and both optimisations
    montecarlo  seeded pulse-level simulation and distortion reports
    sweeps      parameter sweeps, CSV/JSON tables, validation harness
    cli         command-line interface (``cowsec`` entry point)

The package root re-exports the names the demos use; everything else is
imported from its module, e.g. ``from cowsec.montecarlo import
simulate_active_attack``. The three sweep names load ``sweeps`` on first
use, so that importing the package (and the closed-form commands of
``cli``) does not pay for it. Records are immutable ``typing.NamedTuple``s, so no
module loads ``dataclasses``: use ``x._replace(...)`` and ``x._asdict()``.
"""

__version__ = "0.1.0"

from .core import ProtocolParams, channel_point
from .attacks import (
    active_attack,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
)

__all__ = [
    "__version__",
    "ProtocolParams",
    "channel_point",
    "bs_attack",
    "active_attack",
    "critical_length",
    "fully_insecure_length",
    "key_rate_margin",
    "sweep_qber_curves",
    "sweep_optimal_intensity",
    "run_montecarlo_validation",
]


def __getattr__(name: str) -> object:
    # Called only for names not bound above, so the names of __all__ that
    # reach it are the three from sweeps. Not cached in the package globals:
    # each access reads the current binding in sweeps, so a function
    # patched there is seen here too.
    if name in __all__:
        from . import sweeps

        return getattr(sweeps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
