"""Ergodic spectral efficiency versus Nakagami fading order.

Integrates the coverage bound's CCDF to get the analytic mean and pairs
it with a Monte Carlo average over the same LOS-ball law.  Less fading
variability (larger m) raises the rate.  The analytic column is an upper
bound whose gap grows with m, so the right reading is the common trend
and the bound direction, not pointwise equality.

Run:  python3 demos/ergodic_se_nakagami.py
"""

import dataclasses
import os

from wearnet import analytic, mcsim, model
from wearnet.experiments import figure_config_text

OUT_DIR = "demo_out"
ORDERS = (1, 2, 4, 8, 16)
N_TRIALS = 10000
SEED = 2029

FILLS = {"alpha_L": "3.2", "alpha_N": "3.4", "R0": "0.25", "noise_power": "1.0"}


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    values = model.parse_key_values(figure_config_text("fig8"))
    values.update(FILLS)
    cfg = model.config_from_keys(values)

    print(f"lambda = {cfg.density}, p_t = {cfg.tx_probability}, "
          f"{N_TRIALS} trials per point")
    print(f"{'m':>4} {'analytic':>10} {'sampled':>10} {'se':>8} {'gap':>8}")
    # one simulation for every order: the orders share their deployments
    sweep = mcsim.simulate_order_sweep(mcsim.LOSBALL, cfg, ORDERS, N_TRIALS, SEED)
    for m, samples in zip(ORDERS, sweep):
        params = analytic.coverage_params(dataclasses.replace(cfg, m_los=m))
        se_a = analytic.ergodic_spectral_efficiency(params)
        se_mc, err = mcsim.mean_spectral_efficiency(samples)
        print(f"{m:4d} {se_a:10.4f} {se_mc:10.4f} {err:8.4f} {se_a - se_mc:8.4f}")
    print("\nboth columns rise with m; the gap column is the bound's margin,"
          "\ngrowing with m (at m = 1 the bound is exact, so that row's gap"
          "\nis pure sampling noise)")


if __name__ == "__main__":
    main()
