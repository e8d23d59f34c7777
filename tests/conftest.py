"""Shared fixtures for the test suite.

make_config() builds the baseline scenario used throughout: body blocker
density 3 /m^2, blocker diameter 0.3 m, 10 m network disk, 6 dB / -0.88 dB
sectorized horns with 50 degree beamwidth at both ends, Rayleigh links,
unit noise power.  Individual tests override single keys from there.

figure_config() builds the canonical figure-style setups with their four
REQUIRED physical constants filled (alpha_L = 3.2, alpha_N = 3.4,
R0 = 0.25 m, unit noise), as the acceptance gates use them.
"""

from wearnet import experiments, model

BASE_KEYS = {
    "lambda": 3.0,
    "W": 0.3,
    "r_net": 10.0,
    "Gt_dB": 6.0,
    "gt_dB": -0.88,
    "theta_t_deg": 50.0,
    "Gr_dB": 6.0,
    "gr_dB": -0.88,
    "theta_r_deg": 50.0,
    "p_t": 1.0,
    "alpha_L": 3.2,
    "alpha_N": 3.4,
    "m": 1,
    "m_nlos": 1,
    "R0": 0.25,
    "noise_power": 1.0,
    "power_ratio": 1.0,
}


def make_config(**overrides):
    values = dict(BASE_KEYS)
    values.update(overrides)
    return model.config_from_keys(values)


# fills for the REQUIRED placeholders in the emitted figure configs
FIGURE_FILLS = {"alpha_L": "3.2", "alpha_N": "3.4", "R0": "0.25", "noise_power": "1.0"}


def figure_config(figure_id, **extra):
    values = model.parse_key_values(experiments.figure_config_text(figure_id))
    values.update(FIGURE_FILLS)
    values.update({k: str(v) for k, v in extra.items()})
    return model.config_from_keys(values)
