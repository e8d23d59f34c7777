"""SINR coverage: closed-form bound against LOS-ball simulation.

Evaluates the analytic CCDF (exact for m = 1, an upper bound otherwise)
on a dB grid and overlays the empirical CCDF from the reduced LOS-ball
simulator.  At the Nakagami-3, 80%-activity setup the two stay within a
few percent everywhere and the bound never dips below the simulation.

Run:  python3 demos/coverage_bound_vs_simulation.py
"""

import os

import numpy as np

from wearnet import analytic, mcsim, model
from wearnet.experiments import figure_config_text

OUT_DIR = "demo_out"
N_TRIALS = 20000
SEED = 2027
BETA_DB = np.arange(-10.0, 31.0, 1.0)

FILLS = {"alpha_L": "3.2", "alpha_N": "3.4", "R0": "0.25", "noise_power": "1.0"}


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    values = model.parse_key_values(figure_config_text("fig7"))
    values.update(FILLS)
    cfg = model.config_from_keys(values)

    params = analytic.coverage_params(cfg)
    beta = model.db_to_linear(BETA_DB)
    ccdf_a = np.asarray(analytic.coverage_ccdf(beta, params))
    emp = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, N_TRIALS, beta, SEED)

    sup = float(np.max(np.abs(ccdf_a - emp.ccdf)))
    print(f"m = {cfg.m_los}, p_t = {cfg.tx_probability}, "
          f"lambda = {cfg.density}, {N_TRIALS} trials")
    print(f"{'beta (dB)':>10} {'analytic':>10} {'simulated':>10} {'se':>8}")
    for i in range(0, BETA_DB.size, 5):
        print(f"{BETA_DB[i]:10.0f} {ccdf_a[i]:10.4f} {emp.ccdf[i]:10.4f} "
              f"{emp.stderr[i]:8.4f}")
    print(f"\nsup |analytic - simulated| = {sup:.4f}")
    print(f"bound never below simulation - 3 se: "
          f"{bool(np.all(ccdf_a >= emp.ccdf - 3.0 * emp.stderr))}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(BETA_DB, ccdf_a, label="analytic bound")
    ax.errorbar(BETA_DB, emp.ccdf, yerr=3.0 * emp.stderr, fmt=".", ms=4,
                label="LOS-ball simulation (3 se)")
    ax.set_xlabel(r"SINR threshold $\beta$ (dB)")
    ax.set_ylabel(r"$P(\mathrm{SINR} > \beta)$")
    ax.legend()
    fig.tight_layout()
    path = os.path.join(OUT_DIR, "coverage_bound.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
