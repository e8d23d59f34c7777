"""Mean number of unblocked interferers versus body density.

The closed form integrates the LOS-retained intensity over the network
disk; the Monte Carlo column samples full deployments (interferers plus
an independent blocker field) and classifies every link exactly.  Denser
crowds block more: the count drops even though more users are present.

Run:  python3 demos/mean_count_vs_density.py
"""

import dataclasses
import os

from wearnet import losball, mcsim, model
from wearnet.experiments import figure_config_text

OUT_DIR = "demo_out"
DENSITIES = (1.0, 2.0, 3.0, 4.0, 5.0)
N_DEPLOYMENTS = 2000
SEED = 2026

# the canonical setup leaves the physical constants open; fill them once
FILLS = {"alpha_L": "3.2", "alpha_N": "3.4", "R0": "0.25", "noise_power": "1.0"}


def base_config():
    values = model.parse_key_values(figure_config_text("fig5"))
    values.update(FILLS)
    return model.config_from_keys(values)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    cfg = base_config()
    print(f"W = {cfg.blockage_diameter} m, r_net = {cfg.net_radius} m, "
          f"{N_DEPLOYMENTS} deployments per point")
    print(f"{'lambda':>8} {'analytic':>10} {'sampled':>10} {'se':>8} {'z':>6}")
    for lam in DENSITIES:
        analytic_mean = losball.mean_los_interferers(
            lam, cfg.blockage_diameter, cfg.net_radius)
        cfg_l = dataclasses.replace(cfg, density=lam)
        mc, se = mcsim.estimate_mean_los_count(cfg_l, N_DEPLOYMENTS, SEED)
        z = abs(mc - analytic_mean) / se
        print(f"{lam:8.1f} {analytic_mean:10.3f} {mc:10.3f} {se:8.3f} {z:6.2f}")
    print("\nevery |z| should sit well inside 3; the trend is monotone down")


if __name__ == "__main__":
    main()
