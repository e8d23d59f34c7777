"""Closed-form coverage bound, weak-interference power, spectral efficiency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from conftest import figure_config, make_config
import oracles
from oracles import t_factor
from wearnet import analytic, mcsim, model


def _params(**overrides):
    return analytic.coverage_params(make_config(**overrides))


def test_nakagami_scale_factor():
    # hand values: 1, 2!^(-1/2) = 1/sqrt(2), 3!^(-1/3) = 6^(-1/3)
    assert analytic.nakagami_m_tilde(1) == 1.0
    assert abs(analytic.nakagami_m_tilde(2) - 0.7071067811865477) < 1e-15
    assert abs(analytic.nakagami_m_tilde(3) - 0.5503212081491043) < 1e-15
    vals = [analytic.nakagami_m_tilde(m) for m in range(1, 65)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_beta_tilde_anchor():
    p = _params()
    # hand: 0.25^3.2 / (10^0.6)^2 with beta = 1
    assert abs(analytic.beta_tilde(1.0, p) - 0.0007471503904609663) < 1e-18
    # linear in beta
    assert analytic.beta_tilde(7.0, p) == pytest.approx(7.0 * analytic.beta_tilde(1.0, p), rel=1e-15)


def test_nlos_mean_power_trivial_cases():
    cfg = make_config()
    assert analytic.nlos_mean_power(make_config(p_t=0.0), 1.0) == 0.0
    assert analytic.nlos_mean_power(make_config(**{"lambda": 0.0}), 1.0) == 0.0
    assert analytic.nlos_mean_power(cfg, cfg.net_radius) == 0.0  # empty annulus
    # an empty (or vanishing) LOS ball: the integral of r^(1-aN) diverges
    # at 0 (or overflows), unless no interferer transmits
    for r_los in (0.0, 1e-250):
        assert analytic.nlos_mean_power(make_config(p_t=0.0), r_los) == 0.0
        with pytest.raises(model.ConfigError) as err:
            analytic.nlos_mean_power(cfg, r_los)
        assert err.value.violation == "DensityTooHigh"
    # alpha_N <= 2 would flip the sign of the formula; no config holds it
    with pytest.raises(model.ConfigError) as err:
        analytic.nlos_mean_power(dataclasses.replace(cfg, alpha_nlos=2.0), 1.0)
    assert err.value.violation == "AlphaNlosTooSmall"


@pytest.mark.parametrize("r_los, overrides, violation", [
    (10.1, {}, "LosRadiusOutOfRange"),
    # (-1.0) ** -1.4 is a complex number in Python
    (-1.0, {}, "LosRadiusOutOfRange"),
    (math.nan, {}, "LosRadiusOutOfRange"),
    # the default density's LOS ball: the radial term is finite, and its
    # product with the prefactor passes the float range
    (1.41, {"power_ratio": 1e308}, "NlosPowerOverflow"),
], ids=["above-r_net", "negative", "nan", "product-overflow"])
def test_nlos_mean_power_refusals_name_their_cause(r_los, overrides, violation):
    with pytest.raises(model.ConfigError) as err:
        analytic.nlos_mean_power(make_config(**overrides), r_los)
    assert err.value.violation == violation


def test_nlos_mean_power_matches_quadrature():
    # independent route: campaign average = prefactor * integral of r^(1-aN)
    cfg = make_config()
    table = model.gain_pairs(cfg.tx_pattern, cfg.rx_pattern)
    for r_los in (0.5, 1.4, 5.0):
        radial, err = integrate.quad(lambda r: r ** (1.0 - cfg.alpha_nlos),
                                     r_los, cfg.net_radius, epsabs=1e-14, epsrel=1e-11)
        assert err < 1e-8 * radial
        want = (cfg.power_ratio * cfg.tx_probability * table.mean_gain()
                * 2.0 * math.pi * cfg.density * radial)
        got = analytic.nlos_mean_power(cfg, r_los)
        assert abs(got - want) <= 1e-10 * want


def test_nlos_mean_power_scales_with_power_ratio():
    base = analytic.nlos_mean_power(make_config(), 1.4)
    doubled = analytic.nlos_mean_power(make_config(power_ratio=2.0), 1.4)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_coverage_params_assembly():
    p = _params()
    cfg = p.config
    assert p.r_los == pytest.approx(1.4123965236974583, rel=1e-9)
    assert p.m_tilde == 1.0  # m = 1 baseline
    want_sigma = cfg.noise_power + analytic.nlos_mean_power(cfg, p.r_los)
    assert p.sigma2_total == pytest.approx(want_sigma, rel=1e-12)


def test_t_factor_limits():
    p = _params(m=3)
    bt = float(analytic.beta_tilde(2.0, p))
    gain_r = p.config.rx_pattern.main_gain
    # silent network: no interference, factor is exactly 1
    p_silent = _params(m=3, p_t=0.0)
    assert t_factor(gain_r, 1.0, 1, bt, p_silent) == 1.0
    # zero threshold: factor 1
    assert t_factor(gain_r, 1.0, 1, 0.0, p) == 1.0
    # huge threshold: every active interferer kills the trial, factor -> 1 - p_t
    p_half = _params(m=3, p_t=0.8)
    assert t_factor(gain_r, 1.0, 1, 1e12, p_half) == pytest.approx(0.2, abs=1e-8)
    # in (0, 1] and decreasing in bt
    vals = [t_factor(gain_r, 1.0, 1, b, p) for b in (1e-4, 1e-2, 1.0, 1e2)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_laplace_term_from_t_factor():
    # consistency of the two decompositions: averaging t_factor over the
    # receive lobe and integrating 1 - T over the ball reproduces the
    # closed-form exponent
    p = _params(m=3, p_t=0.8)
    cfg = p.config
    ar = cfg.rx_pattern.main_lobe_fraction
    for ell, beta in ((1, 1.0), (2, 10.0)):
        bt = float(analytic.beta_tilde(beta, p))

        def one_minus_t(r):
            t = (ar * t_factor(cfg.rx_pattern.main_gain, r, ell, bt, p)
                 + (1.0 - ar) * t_factor(cfg.rx_pattern.side_gain, r, ell, bt, p))
            return (1.0 - t) * r

        radial, err = integrate.quad(one_minus_t, 0.0, p.r_los,
                                     epsabs=1e-13, epsrel=1e-12, limit=200)
        assert err < 1e-10
        want = math.exp(-2.0 * math.pi * cfg.density * radial)
        got = analytic.laplace_term(ell, bt, p)
        assert abs(got - want) <= 1e-8 * want, (ell, beta)


def _gain_pair_cases():
    fig8 = figure_config("fig8")
    # a receive pattern of its own: four distinct joint gains
    rx = dataclasses.replace(fig8.rx_pattern, main_gain=2.5, side_gain=0.5,
                             beamwidth=math.radians(30.0))
    # an omnidirectional receiver: the two receive side-lobe pairs have q = 0
    omni = dataclasses.replace(fig8.rx_pattern, beamwidth=2.0 * math.pi)
    return [("fig8", fig8, 3),
            ("tx != rx", dataclasses.replace(fig8, rx_pattern=rx), 4),
            ("q_i = 0", dataclasses.replace(fig8, rx_pattern=omni), 2)]


@pytest.mark.parametrize("case", _gain_pair_cases(), ids=lambda case: case[0])
def test_laplace_term_one_integral_per_distinct_gain(monkeypatch, case):
    # equal tx and rx patterns give main x side and side x main one joint
    # gain, so 3 radial integrals per live point; distinct patterns give 4;
    # a pair with q_i = 0 is dropped.  Every bit equals one integral per pair
    _, cfg, per_point = case
    params = analytic.coverage_params(dataclasses.replace(cfg, m_los=3))
    sizes = []
    original = analytic.integrate_batch

    def recorded(f, n, *args, **kwargs):
        sizes.append(n)
        return original(f, n, *args, **kwargs)

    monkeypatch.setattr(analytic, "integrate_batch", recorded)
    ell = np.arange(1.0, 4.0)[:, None]
    bt = np.array([0.0, 1e-4, 0.03, 2.0, 50.0])
    got = analytic.laplace_term(ell, bt, params)
    assert sizes == [per_point * ell.size * np.count_nonzero(bt)]
    want = oracles.laplace_term(*np.broadcast_arrays(ell, bt), params)
    assert got.tobytes() == want.tobytes()


def test_laplace_term_trivial_and_monotone():
    p = _params(m=3)
    bt = float(analytic.beta_tilde(1.0, p))
    assert analytic.laplace_term(1, 0.0, p) == 1.0
    assert analytic.laplace_term(1, bt, _params(m=3, p_t=0.0)) == 1.0
    assert analytic.laplace_term(1, bt, _params(**{"lambda": 0.0, "m": 3})) == 1.0
    vals = [analytic.laplace_term(1, b, p) for b in (1e-4, 1e-2, 1.0, 1e2)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in bt
    terms = [analytic.laplace_term(ell, bt, p) for ell in (1, 2, 3)]
    assert all(a > b for a, b in zip(terms, terms[1:]))  # decreasing in ell


def test_laplace_term_matches_monte_carlo():
    # sample the defining expectation E[exp(-s I)] over LOS-ball PPPs with
    # activity, lobe, and Gamma(m, 1/m) fading marks; 3.5 sigma agreement
    p = _params(m=3, p_t=0.8)
    cfg = p.config
    ell = 1
    bt = float(analytic.beta_tilde(1.0, p))
    s = ell * cfg.m_los * p.m_tilde * bt
    rng = np.random.default_rng(21)
    n = 20000
    counts = rng.poisson(cfg.density * math.pi * p.r_los**2, size=n)
    tot = int(counts.sum())
    trial = np.repeat(np.arange(n), counts)
    r = p.r_los * np.sqrt(rng.uniform(size=tot))
    active = rng.uniform(size=tot) < cfg.tx_probability
    at = cfg.tx_pattern.main_lobe_fraction
    ar = cfg.rx_pattern.main_lobe_fraction
    g_tx = np.where(rng.uniform(size=tot) < at,
                    cfg.tx_pattern.main_gain, cfg.tx_pattern.side_gain)
    g_rx = np.where(rng.uniform(size=tot) < ar,
                    cfg.rx_pattern.main_gain, cfg.rx_pattern.side_gain)
    h = rng.gamma(cfg.m_los, 1.0 / cfg.m_los, size=tot)
    power = active * cfg.power_ratio * g_tx * g_rx * h * r ** (-cfg.alpha_los)
    interference = np.bincount(trial, weights=power, minlength=n)
    vals = np.exp(-s * interference)
    se = vals.std(ddof=1) / math.sqrt(n)
    got = analytic.laplace_term(ell, bt, p)
    assert abs(vals.mean() - got) < 3.5 * se


def test_coverage_noise_only_exact():
    # lambda = 0, m = 1: the bound is the exact Rayleigh CCDF exp(-bt sigma2)
    p = _params(**{"lambda": 0.0, "m": 1})
    betas = np.geomspace(1e-3, 1e3, 25)
    want = np.exp(-analytic.beta_tilde(betas, p) * p.config.noise_power)
    got = analytic.coverage_ccdf(betas, p)
    assert np.max(np.abs(got - want)) < 1e-12


def test_coverage_endpoints_and_shape():
    for m in (1, 3, 8):
        p = _params(m=m)
        assert analytic.coverage_ccdf(0.0, p) == 1.0
        assert analytic.coverage_ccdf(1e9, p) < 1e-6
        grid = np.geomspace(1e-4, 1e4, 200)
        vals = analytic.coverage_ccdf(grid, p)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12), f"CCDF not monotone at m={m}"


def test_coverage_at_extreme_density_warns_nothing():
    # lambda = 1e4 leaves a LOS ball of radius ~1.5e-157, where r^-aL
    # overflows near r = 0; the factor rounds to 0 there and no numpy
    # warning may escape
    p = _params(**{"lambda": 1e4})
    assert p.r_los < 1e-150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = analytic.coverage_ccdf(np.array([0.0, 1e-9, 1e-3, 1.0, 1e3]), p)
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert vals[0] == 1.0 and np.all(np.diff(vals) <= 0.0)


def test_coverage_scalar_array_agree():
    grid = np.array([0.0, 0.1, 1.0, 10.0])
    for m in (1, 3, 16):
        p = _params(m=m)
        arr = analytic.coverage_ccdf(grid, p)
        sca = [analytic.coverage_ccdf(float(b), p) for b in grid]
        assert arr.tolist() == sca, m
        assert isinstance(sca[0], float)
        # any array shape, same values
        assert analytic.coverage_ccdf(grid.reshape(2, 2), p).ravel().tolist() == sca


def test_laplace_term_broadcasts():
    p = _params(m=3, p_t=0.8)
    ell = np.array([[1.0], [2.0], [3.0]])
    bt = analytic.beta_tilde(np.array([0.0, 0.5, 4.0, 30.0]), p)
    grid = analytic.laplace_term(ell, bt, p)
    assert grid.shape == (3, 4)
    want = [[analytic.laplace_term(int(e), float(b), p) for b in bt] for e in ell[:, 0]]
    assert grid.tolist() == want
    assert np.all(grid[:, 0] == 1.0)
    assert isinstance(want[0][1], float)


def test_coverage_parameter_monotonicity():
    # more noise or more active interferers can only hurt coverage
    beta = 2.0
    base = analytic.coverage_ccdf(beta, _params())
    assert analytic.coverage_ccdf(beta, _params(noise_power=2.0)) < base
    assert analytic.coverage_ccdf(beta, _params(p_t=0.5)) > base
    # denser bodies hurt at these parameters (more blockage raises the
    # weak-interference floor faster than the LOS ball shrinks)
    lams = (0.0, 1.0, 3.0, 5.0)
    vals = [analytic.coverage_ccdf(beta, _params(**{"lambda": lam})) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_se_ccdf_mapping():
    p = _params(m=3)
    assert analytic.spectral_efficiency_ccdf(0.0, p) == 1.0
    t = np.array([0.5, 2.0, 6.0])
    want = analytic.coverage_ccdf(np.exp2(t) - 1.0, p)
    got = analytic.spectral_efficiency_ccdf(t, p)
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        analytic.spectral_efficiency_ccdf(-0.1, p)


def test_bad_thresholds_refused_before_quadrature(monkeypatch):
    # a NaN or negative threshold is bad input, not a numerical failure:
    # the quadrature would spend its whole panel budget on it and then
    # raise QuadratureNotConverged
    p = _params(m=3, p_t=0.8)

    def no_quadrature(*args, **kwargs):
        pytest.fail("a radial integral ran before the refusal")

    monkeypatch.setattr(analytic, "integrate_batch", no_quadrature)
    for beta in (math.nan, -1.0, -math.inf, np.array([1.0, math.nan]),
                 np.array([[0.5], [-1e-300]])):
        with pytest.raises(ValueError):
            analytic.coverage_ccdf(beta, p)
    for t in (math.nan, np.array([0.5, math.nan]), -0.1):
        with pytest.raises(ValueError):
            analytic.spectral_efficiency_ccdf(t, p)
    monkeypatch.undo()
    assert analytic.coverage_ccdf(math.inf, p) == 0.0
    assert analytic.spectral_efficiency_ccdf(math.inf, p) == 0.0


def test_bad_thresholds_are_named_refusals():
    # the grid rules' names: a NaN anywhere is ThresholdNaN, else a value
    # below 0 is ThresholdNegative; -1e-300 bit/s/Hz is refused although
    # 2^t - 1 rounds to 0 there
    p = _params(m=3, p_t=0.8)
    for f, x, violation in (
            (analytic.coverage_ccdf, math.nan, "ThresholdNaN"),
            (analytic.coverage_ccdf, np.array([-1.0, math.nan]), "ThresholdNaN"),
            (analytic.coverage_ccdf, -1.0, "ThresholdNegative"),
            (analytic.coverage_ccdf, -math.inf, "ThresholdNegative"),
            (analytic.coverage_ccdf, np.array([[0.5], [-1e-300]]), "ThresholdNegative"),
            (analytic.spectral_efficiency_ccdf, np.array([0.5, math.nan]), "ThresholdNaN"),
            (analytic.spectral_efficiency_ccdf, -0.1, "ThresholdNegative"),
            (analytic.spectral_efficiency_ccdf, -1e-300, "ThresholdNegative")):
        with pytest.raises(model.ConfigError) as err:
            f(x, p)
        assert err.value.violation == violation, (f.__name__, x)


def test_ergodic_se_noise_only_closed_form():
    # lambda = 0, m = 1: E[log2(1 + c h)] = exp(1/c) E1(1/c) / ln 2, h ~ Exp(1)
    p = _params(**{"lambda": 0.0, "m": 1})
    cfg = p.config
    c = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
         * cfg.ref_distance ** (-cfg.alpha_los) / cfg.noise_power)
    want = math.exp(1.0 / c) * special.exp1(1.0 / c) / math.log(2.0)
    got = analytic.ergodic_spectral_efficiency(p)
    assert abs(got - want) < 1e-5


def test_ergodic_se_orderings():
    # steadier fading (larger m) raises the bound; fewer active interferers help
    es = [analytic.ergodic_spectral_efficiency(_params(**{"lambda": 0.0, "m": m}))
          for m in (1, 2, 4)]
    assert all(a <= b + 1e-9 for a, b in zip(es, es[1:]))
    assert (analytic.ergodic_spectral_efficiency(_params(p_t=0.5))
            > analytic.ergodic_spectral_efficiency(_params(p_t=1.0)))


def test_ergodic_se_unbounded_without_noise_or_interference(monkeypatch):
    # no noise and no interference: coverage is 1 at every t and the mean
    # rate does not exist; it is refused by name before any CCDF is
    # evaluated, where the t_max doubling used to overflow np.exp2
    def no_ccdf(t, params):
        raise AssertionError("CCDF evaluated")

    monkeypatch.setattr(analytic, "spectral_efficiency_ccdf", no_ccdf)
    for overrides in ({"p_t": 0.0}, {"lambda": 0.0}):
        p = _params(noise_power=0.0, **overrides)
        with pytest.raises(model.ConfigError) as err:
            analytic.ergodic_spectral_efficiency(p)
        assert err.value.violation == "SinrUnbounded"
    monkeypatch.undo()
    # noiseless with interference, or noisy and silent: a finite mean
    for overrides in ({"noise_power": 0.0}, {"p_t": 0.0}):
        assert math.isfinite(analytic.ergodic_spectral_efficiency(_params(**overrides)))


def test_ergodic_se_unbounded_when_los_ball_fills_disk():
    # fig7, no noise, lambda = 1e-300: the LOS ball fills the disk, so no
    # NLOS interference and sigma2_total == 0, but the network is live.
    # The ball is empty with probability exp(-lambda pi p_t R^2) > 0, the
    # SINR then infinite, and the mean rate does not exist; the t_max search
    # used to stop at t = 1024 only because 2^1024 overflows
    p = analytic.coverage_params(figure_config("fig7", noise_power=0.0,
                                               **{"lambda": 1e-300}))
    assert p.sigma2_total == 0.0 and p.r_los == p.config.net_radius
    with pytest.raises(model.ConfigError) as err:
        analytic.ergodic_spectral_efficiency(p)
    assert err.value.violation == "SinrUnbounded"


@pytest.mark.parametrize("overrides", [{"R0": 1e-100},
                                       {"noise_power": 1e-310, "lambda": 0.0}],
                         ids=["reference-power", "quotient"])
def test_ergodic_se_refuses_overflowing_snr(overrides):
    # fig8 with Gt Gr R0^-alpha_L past the float range, or a finite one
    # over noise_power = 1e-310: every SINR is +inf, so coverage is 1 at
    # every finite threshold and the mean rate is refused by name, as the
    # engine refuses it; the t_max search used to return about 1024, the
    # point where 2^t overflows
    p = analytic.coverage_params(figure_config("fig8", **overrides))
    assert np.all(analytic.coverage_ccdf(np.array([0.0, 1.0, 1e10]), p) == 1.0)
    with pytest.raises(model.ConfigError) as err:
        analytic.ergodic_spectral_efficiency(p)
    assert err.value.violation == "SinrUnbounded"


def test_ergodic_se_near_the_t_max_bound():
    # fig8 at noise_power = 1e-300 and lambda = 0: a finite SNR of about
    # 1.3e303 and a mean rate of about 1006 bit/s/Hz, close to where the
    # t_max search stops (2^1024 overflows), is answered, not refused, and
    # agrees with the losball engine
    cfg = figure_config("fig8", noise_power=1e-300, **{"lambda": 0.0})
    got = analytic.ergodic_spectral_efficiency(analytic.coverage_params(cfg))
    assert abs(got - 1006.132) < 1e-3
    mean, se = mcsim.estimate_ergodic_se(mcsim.LOSBALL, cfg, 200, 1)
    assert abs(got - mean) < 3.0 * se


# ergodic SE at the fig8 setup, m = 1, 2, 4, 8, 16, frozen from the
# one-integral-at-a-time quadrature this package used before its rule was
# batched
FIG8_ERGODIC_SE = (3.336852895599304, 3.5540301871061977, 3.728099417166248,
                   3.8937358422737463, 4.061047602426209)


def test_ergodic_se_fig8_frozen():
    cfg = figure_config("fig8")
    for m, want in zip((1, 2, 4, 8, 16), FIG8_ERGODIC_SE):
        p = analytic.coverage_params(dataclasses.replace(cfg, m_los=m))
        assert abs(analytic.ergodic_spectral_efficiency(p) - want) < 1e-9, m


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Alzer sum cancels at high m; the exact route is the fix")
@pytest.mark.parametrize("lam, m", [(0.5, 32), (2, 31)])
def test_coverage_monotone_at_high_order_in_a_sparse_crowd(lam, m):
    # fig8, no warning raised, both orders accepted (MAX_NAKAGAMI_M is 64):
    # between neighbouring points of a 0.25 dB grid the CCDF rises by about
    # 0.908 at lambda = 0.5, m = 32, and by 0.962 at fig8's own lambda = 2,
    # m = 31, where m = 30 and m = 32 are monotone (largest rise about -1e-9)
    p = analytic.coverage_params(figure_config("fig8", m=m, **{"lambda": lam}))
    beta = model.db_to_linear(np.linspace(-10.0, 30.0, 161))
    ccdf = analytic.coverage_ccdf(beta, p)
    assert np.all(np.isfinite(ccdf))
    assert np.max(np.diff(ccdf)) <= 1e-12
