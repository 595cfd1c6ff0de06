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
    core        fibre transmittance, binary entropy and its inverse, Holevo bound
    attacks     the two attack analyses and both optimisations
    montecarlo  seeded pulse-level simulation and distortion reports
    sweeps      parameter sweeps, CSV/JSON tables, validation harness
    cli         command-line interface (``cowsec`` entry point)

Each public name is imported from the module that defines it, e.g.
``from cowsec.attacks import active_attack``; the package root holds only
``__version__``. Records are immutable ``typing.NamedTuple``s, so no
module loads ``dataclasses``: use ``x._replace(...)`` and ``x._asdict()``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
