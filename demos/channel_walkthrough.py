"""Walk through the security analysis of a single COW link, step by step.

Shows how the channel length turns into intensities, how each attack
converts those intensities into eavesdropper information, and where the
critical QBER comes from. Run:

    python demos/channel_walkthrough.py
"""

from cowsec.attacks import (
    active_attack,
    bs_attack,
    critical_length,
    fully_insecure_length,
)
from cowsec.core import ProtocolParams, channel_point


def describe(params: ProtocolParams, length_km: float) -> None:
    point = channel_point(params, length_km)
    print(f"--- {length_km:g} km of fibre at {params.delta:g} dB/km, source mu = {params.mu:g}")
    print(f"    Bob expects intensity      {point.mu_b:.5f}")
    print(f"    Eve's divertable budget    {point.mu_e_max:.5f}")

    bs = bs_attack(params, length_km)
    print(f"    beam splitting:  I_AE = {bs.i_ae:.4f} bit -> critical QBER {bs.qber_critical:.4f}")

    act = active_attack(params, length_km)
    plan = act.plan
    print(
        f"    active variant:  diverts {plan.mu_e:.4f}, forwards {plan.mu_b_prime:.4f}, "
        f"blocks {plan.block_fraction:.1%} of information pulses"
    )
    if act.fully_insecure:
        print("                     I_AE = 1 bit, no added errors needed: no secure key at all")
    else:
        print(
            f"                     I_AE = {act.i_ae:.4f} bit -> critical QBER "
            f"{act.qber_critical:.4f}"
        )
    print(f"    key-rate margin left to Alice and Bob: {plan.margin:.4f} bit/pulse")
    print()


def main() -> None:
    params = ProtocolParams(mu=0.5, delta=0.2)
    print(f"blocking becomes worthwhile beyond  {critical_length(params.delta):.2f} km")
    print(f"the active attack needs no errors beyond {fully_insecure_length(params):.2f} km")
    print()
    for length in (5.0, 20.0, 35.0, 50.0, 60.0):
        describe(params, length)

    print("Short channels favour collective decoding of the diverted light;")
    print("past the crossover, measuring immediately and blocking inconclusive")
    print("pulses wins, and beyond the last milestone the protocol is broken")
    print("without leaving any error-rate trace.")


if __name__ == "__main__":
    main()
