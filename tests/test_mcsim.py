"""Monte Carlo SINR engine: fading law, trial laws, determinism."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from conftest import make_config
from wearnet import analytic, losball, mcsim


def test_nakagami_fading_moments():
    rng = np.random.default_rng(31)
    n = 200000
    for m in (1, 3, 8):
        h = mcsim.sample_nakagami_power(m, rng, n)
        # Gamma(m, 1/m): mean 1, variance 1/m
        assert abs(h.mean() - 1.0) < 3.5 / math.sqrt(n * m)
        assert abs(h.var() - 1.0 / m) < 0.02 / m
    # m = 1 is exponential: P(h > 1) = 1/e
    h1 = mcsim.sample_nakagami_power(1, rng, n)
    p = np.mean(h1 > 1.0)
    assert abs(p - math.exp(-1.0)) < 3.5 * math.sqrt(p * (1 - p) / n)
    # m = 64 concentrates: std = 1/8
    h64 = mcsim.sample_nakagami_power(64, rng, n)
    assert abs(h64.std() - 0.125) < 0.005
    # scalar draw
    assert np.ndim(mcsim.sample_nakagami_power(3, rng)) == 0


def test_zero_density_samples():
    # no interferers: SINR = Gt Gr h R0^-aL / noise with h ~ Exp(1) and an
    # all-zero interference column, in both modes
    cfg = make_config(**{"lambda": 0.0})
    coef = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
            * cfg.ref_distance ** (-cfg.alpha_los) / cfg.noise_power)
    n = 20000
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        samples = mcsim.simulate_sinr_samples(mode, cfg, n, master_seed=32)
        assert np.all(samples[:, 1] == 0.0)
        h = samples[:, 0] / coef
        assert abs(h.mean() - 1.0) < 3.5 / math.sqrt(n)
        p = np.mean(h > 1.0)
        assert abs(p - math.exp(-1.0)) < 3.5 * math.sqrt(p * (1 - p) / n)
    assert mcsim.estimate_mean_los_count(cfg, 50, master_seed=32) == (0.0, 0.0)


def test_silent_network_samples():
    cfg = make_config(p_t=0.0)
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        samples = mcsim.simulate_sinr_samples(mode, cfg, 50, master_seed=33)
        assert np.all(samples[:, 1] == 0.0)
        assert np.all(samples[:, 0] > 0.0)


def test_losball_interference_mean():
    # E[I] over the ball: 2 pi lam p_t (q.G) rho int_0^R r^(1-aL) dr by
    # Campbell's formula.  alpha_L = 0.9 < 1 keeps not just the mean but the
    # variance of each trial's aggregate finite, so the 3.5 sigma band is valid
    # (for alpha_L >= 1 the near-origin tail has infinite variance and the
    # sample mean converges too slowly to test this way).
    for p_t in (1.0, 0.5):
        cfg = make_config(alpha_L=0.9, p_t=p_t)
        r_los = losball.los_ball_radius(cfg.density, cfg.blockage_diameter,
                                        cfg.net_radius)
        table = analytic.coverage_params(cfg).gain_table
        radial, _ = integrate.quad(lambda r: r ** (1.0 - cfg.alpha_los), 0.0, r_los)
        want = (cfg.density * 2.0 * math.pi * cfg.tx_probability
                * table.mean_gain() * cfg.power_ratio * radial)
        samples = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 8000, master_seed=34)
        got = samples[:, 1].mean()
        se = samples[:, 1].std(ddof=1) / math.sqrt(samples.shape[0])
        assert abs(got - want) < 3.5 * se, (p_t, got, want, se)


def test_mean_los_count_matches_closed_form():
    cfg = make_config()
    mean, se = mcsim.estimate_mean_los_count(cfg, 3000, master_seed=35)
    want = losball.mean_los_interferers(cfg.density, cfg.blockage_diameter,
                                        cfg.net_radius)
    assert se < 0.5
    assert abs(mean - want) < 3.5 * se


def test_empirical_ccdf_hand_case():
    dist = mcsim.empirical_ccdf(np.array([1.0, 2.0, 3.0, 4.0]),
                                np.array([0.0, 1.5, 2.5, 5.0]))
    assert np.array_equal(dist.ccdf, [1.0, 0.75, 0.5, 0.0])
    assert dist.n_trials == 4
    want_se = np.sqrt(dist.ccdf * (1.0 - dist.ccdf) / 4.0)
    assert np.allclose(dist.stderr, want_se, rtol=0.0, atol=1e-15)
    assert np.array_equal(dist.cdf, 1.0 - dist.ccdf)
    # ties sit on the closed side: P(X > 2) counts strictly greater
    tied = mcsim.empirical_ccdf(np.array([2.0, 2.0, 3.0]), np.array([2.0]))
    assert tied.ccdf[0] == pytest.approx(1.0 / 3.0)


def test_empirical_ccdf_rejects_bad_grid():
    with pytest.raises(ValueError):
        mcsim.empirical_ccdf(np.array([1.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        mcsim.empirical_ccdf(np.array([1.0]), np.array([]))


def test_simulate_ccdf_zero_threshold():
    cfg = make_config()
    dist = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, 500, np.array([0.0]), master_seed=36)
    assert dist.ccdf[0] == 1.0  # SINR is positive in every trial


def test_se_ccdf_shares_samples_with_sinr_ccdf():
    cfg = make_config()
    t_grid = np.array([0.0, 1.0, 3.0, 6.0])
    se_dist = mcsim.simulate_se_ccdf(mcsim.LOSBALL, cfg, 800, t_grid, master_seed=37)
    sinr_dist = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, 800,
                                    np.exp2(t_grid) - 1.0, master_seed=37)
    assert np.array_equal(se_dist.ccdf, sinr_dist.ccdf)
    assert np.array_equal(se_dist.thresholds, t_grid)


def test_trial_determinism_and_seed_sensitivity():
    cfg = make_config()
    a = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=38)
    b = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=38)
    assert np.array_equal(a, b)
    c = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=39)
    assert not np.array_equal(a, c)
    # a longer run extends, never reshuffles, the trial sequence
    d = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 400, master_seed=38)
    assert np.array_equal(d[:300], a)


def test_worker_split_invariance():
    cfg = make_config()
    serial = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 600, master_seed=40,
                                         workers=1)
    split = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 600, master_seed=40,
                                        workers=3)
    assert np.array_equal(serial, split)
    m1, s1 = mcsim.estimate_mean_los_count(cfg, 200, master_seed=41, workers=1)
    m3, s3 = mcsim.estimate_mean_los_count(cfg, 200, master_seed=41, workers=3)
    assert m1 == m3 and s1 == s3


def test_estimate_ergodic_se_noise_only():
    # lambda = 0, m = 1 closed form exp(1/c) E1(1/c) / ln 2
    cfg = make_config(**{"lambda": 0.0})
    c = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
         * cfg.ref_distance ** (-cfg.alpha_los) / cfg.noise_power)
    want = math.exp(1.0 / c) * special.exp1(1.0 / c) / math.log(2.0)
    mean, se = mcsim.estimate_ergodic_se(mcsim.FULL, cfg, 20000, master_seed=42)
    assert se < 0.05
    assert abs(mean - want) < 3.5 * se


def test_mode_names_validated():
    cfg = make_config()
    with pytest.raises(ValueError):
        mcsim.simulate_sinr_samples("bogus", cfg, 10, master_seed=0)
    with pytest.raises(ValueError):
        mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 0, master_seed=0)


def test_full_mode_blockage_lowers_interference():
    # body blockage removes LOS interferers, so FULL-mode aggregate
    # interference is stochastically below the all-LOS ball would suggest;
    # compare mean LOS counts instead of raw power: geometric count in FULL
    # trials must track the thinned mean, far below the unthinned disk count
    cfg = make_config()
    mean, se = mcsim.estimate_mean_los_count(cfg, 1500, master_seed=43)
    unthinned = cfg.density * math.pi * cfg.net_radius**2
    assert mean + 5.0 * se < unthinned
