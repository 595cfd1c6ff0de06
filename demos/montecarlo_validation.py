"""Cross-validate the closed-form attack rates with pulse-level simulation.

A million seeded pulses go through the attacked link; every analytic
probability is compared with its empirical counterpart, and the decoy
detection-pattern distortion that blocking imprints is tabulated. Run:

    python demos/montecarlo_validation.py [seed]
"""

import sys

from cowsec import ProtocolParams, run_montecarlo_validation


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    params = ProtocolParams(mu=0.2, decoy_fraction=0.1, delta=0.2)
    report = run_montecarlo_validation(params, length_km=20.0, n_pulses=1_000_000, seed=seed)

    plan = report.plan
    print(f"seed {seed}: Eve diverts {plan['mu_e']:g}, blocks {plan['block_fraction']:.4f}, "
          f"knows {plan['i_ae']:.4f} bit per sifted bit")
    print()
    print(" check                              observed    expected        z")
    for c in report.checks:
        print(f"  {c.name:<32} {c.observed:9.6f}  {c.expected:9.6f}  {c.z:+6.2f}  {c.status}")
    print()
    print(" Bob-side detection patterns (attacked run vs unattacked expectation):")
    print(" class  pattern    expected    under attack  observed        z   detectable")
    for r in report.distortion.rows:
        mark = "  <-- flag" if r.flagged else ""
        print(
            f"  {r.pulse_class:<6} {r.pattern:<9} {r.expected_no_attack:9.6f}  "
            f"{r.expected_attack:12.6f}  {r.observed_attack:9.6f}  {r.z_observed:+6.2f}{mark}"
        )
    print()
    print("verdict:", report.verdict)
    print("The flagged decoy double-click excess is the statistical fingerprint")
    print("the attack leaves: raised forward intensity makes decoys coincide")
    print("more often than the lossy channel alone would allow.")


if __name__ == "__main__":
    main()
