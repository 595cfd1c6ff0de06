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
"""

__version__ = "0.1.0"

from .core import (
    ChannelPoint,
    ProtocolParams,
    attenuate,
    binary_entropy,
    binary_entropy_inverse,
    channel_point,
    coherent_pair_overlap,
    holevo_two_pure,
)
from .attacks import (
    ACTIVE_BEAM_SPLITTING,
    BEAM_SPLITTING,
    ActiveAttackPlan,
    AttackReport,
    OptimalIntensity,
    active_attack,
    active_eve_info,
    active_plan,
    bs_attack,
    critical_length,
    fully_insecure_length,
    key_rate_margin,
    optimal_mu_e,
    optimal_source_intensity,
)
from .montecarlo import (
    ClassTally,
    DistortionReport,
    InfeasibleBlockingError,
    PatternRow,
    PulseClass,
    TrialStats,
    blocking_probability,
    decoy_distortion,
    detection_pattern_probabilities,
    simulate_active_attack,
    simulate_no_attack,
)
from .sweeps import (
    CheckResult,
    SweepRow,
    SweepSpec,
    ValidationReport,
    length_grid,
    read_sweep_csv,
    read_sweep_json,
    run_montecarlo_validation,
    sweep_optimal_intensity,
    sweep_qber_curves,
    write_sweep,
)

__all__ = [
    "__version__",
    # core
    "ProtocolParams",
    "ChannelPoint",
    "channel_point",
    "attenuate",
    "binary_entropy",
    "binary_entropy_inverse",
    "coherent_pair_overlap",
    "holevo_two_pure",
    # attacks
    "BEAM_SPLITTING",
    "ACTIVE_BEAM_SPLITTING",
    "ActiveAttackPlan",
    "AttackReport",
    "OptimalIntensity",
    "bs_attack",
    "active_plan",
    "active_eve_info",
    "optimal_mu_e",
    "critical_length",
    "active_attack",
    "fully_insecure_length",
    "key_rate_margin",
    "optimal_source_intensity",
    # montecarlo
    "PulseClass",
    "ClassTally",
    "TrialStats",
    "PatternRow",
    "DistortionReport",
    "InfeasibleBlockingError",
    "blocking_probability",
    "simulate_no_attack",
    "simulate_active_attack",
    "detection_pattern_probabilities",
    "decoy_distortion",
    # sweeps
    "SweepSpec",
    "SweepRow",
    "CheckResult",
    "ValidationReport",
    "length_grid",
    "sweep_qber_curves",
    "sweep_optimal_intensity",
    "run_montecarlo_validation",
    "write_sweep",
    "read_sweep_csv",
    "read_sweep_json",
]
