"""Find the source intensity Alice and Bob should run at, per channel length.

Brighter pulses mean more detections but also hand the eavesdropper a
bigger diverted share; the sweet spot maximises the key-rate margin
between Bob's and Eve's information. Run:

    python demos/source_intensity_optimization.py [out.csv]
"""

import sys

from cowsec.sweeps import length_grid, sweep_optimal_intensity, write_sweep


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "optimal_intensity.csv"
    delta = 0.2
    grid = (1.0, 100.0, 1.0)
    rows = sweep_optimal_intensity(delta, length_grid(*grid))
    config = {
        "demo": "source_intensity_optimization",
        "delta": f"{delta:.17g}",
        "length": ":".join(f"{x:.17g}" for x in grid),
    }
    write_sweep(out, rows, config, "csv")
    print(f"wrote {len(rows)} rows to {out}")
    print()
    print(" length   mu*      margin     QBER_active  QBER_bs")
    for r in rows:
        if r.length_km % 10 == 0:
            print(
                f"  {r.length_km:5.0f}  {r.mu_opt:7.4f}  {r.margin:9.5f}  "
                f"{r.qber_active:10.4f}  {r.qber_bs:8.4f}"
            )
    print()
    print("The optimal intensity falls with distance: a dimmer source keeps")
    print("the diverted share uninformative for longer, at the price of rate.")
    print("Both critical-QBER columns are evaluated at mu* per row, so the")
    print("dashed-style beam-splitting curve is directly comparable.")


if __name__ == "__main__":
    main()
