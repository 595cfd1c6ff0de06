"""Generate the critical-QBER curves for both attacks over channel length.

Produces the plot-ready dataset (one row per intensity and length) and
prints the qualitative landmarks: where the active attack overtakes the
passive one and where security collapses entirely. Run:

    python demos/qber_curves.py [out.csv]
"""

import sys

from cowsec.sweeps import length_grid, sweep_qber_curves, write_sweep


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "qber_curves.csv"
    mu_list = (0.1, 0.2, 0.5)
    delta = 0.2
    grid = (0.0, 150.0, 1.0)
    rows = sweep_qber_curves(mu_list, length_grid(*grid), delta=delta)
    config = {
        "demo": "qber_curves",
        "mu": ",".join(f"{m:.17g}" for m in mu_list),
        "delta": f"{delta:.17g}",
        "length": ":".join(f"{x:.17g}" for x in grid),
    }
    write_sweep(out, rows, config, "csv")
    print(f"wrote {len(rows)} rows to {out}")
    print()
    print("landmarks per source intensity:")
    for mu in mu_list:
        curve = [r for r in rows if r.mu == mu]
        crossover = next(
            (r.length_km for r in curve if 0 < r.length_km and r.qber_active < r.qber_bs),
            None,
        )
        broken = next((r.length_km for r in curve if r.fully_insecure), None)
        print(
            f"  mu = {mu:>4}: active attack beats beam splitting from ~{crossover:g} km, "
            f"zero-error eavesdropping from ~{broken:g} km"
        )
    print()
    print("columns: length_km vs qber_bs (dashed-style curve) and qber_active")
    print("(solid-style curve); i_ae_active, mu_e_opt and block_fraction trace")
    print("the eavesdropper's optimal working point along the way.")


if __name__ == "__main__":
    main()
