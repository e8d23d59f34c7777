"""Closed-form link performance: mean weak-interference power, SINR
coverage CCDF bound, spectral-efficiency distribution and ergodic mean.

The reference receiver at the origin decodes a transmitter at distance R0
over an unblocked link with joint main-lobe gain Gt*Gr and unit-mean
Nakagami-m power fading h0 (Gamma(m, 1/m)), so

    gamma = Gt Gr h0 R0^(-alpha_L) / (sigma2_noise + sigma2_nlos + I),

where I is the aggregate power of LOS interferers inside the equivalent
LOS ball of radius R_LOS and sigma2_nlos is the mean power of everything
outside it.  The coverage probability P(gamma > beta) is bounded using the
Alzer inequality for the normalized Gamma CDF,

    P(h0 > x) <= 1 - (1 - exp(-m mt x))^m,    mt = (m!)^(-1/m),

whose binomial expansion turns the spatial average into a finite sum of
Laplace transforms of I, each available in closed form up to one smooth
radial integral.  The bound is exact at m = 1 and lies at or above the
true CCDF for every threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losball import los_ball_radius
from .model import ConfigError, check_thresholds, gain_pairs, rate_to_sinr
from .quadrature import adaptive_gauss_legendre, integrate_batch

# Integrals are evaluated tighter than their 1e-10 contract, for the
# alternating binomial sum below, which cancels more as m grows.  That does
# not keep the CCDF monotone in beta at high m: on a -10..30 dB grid in
# 0.25 dB steps, with the tests' fill of the figure setups, it rises between
# neighbouring thresholds from m = 23 at fig8 with lambda = 0.1 (by 0.002 at
# m = 24), m = 25 at lambda = 0.5 (by 0.908 at m = 32), m = 29 at fig7,
# m = 31 at fig8 and m = 33 at fig5 and fig6.
_LAPLACE_ABS_TOL = 1e-12
_LAPLACE_REL_TOL = 1e-10


@dataclass(frozen=True)
class CoverageParams:
    """Everything beta-independent in the coverage bound.

    config        the NetworkConfig
    gain_table    joint interferer gain table (q, G)
    r_los         equivalent LOS ball radius (m)
    sigma2_total  noise power plus mean weak-interference power (linear)
    m_tilde       (m!)^(-1/m) from the Alzer bound, in (0, 1], 1 iff m = 1
    """

    config: object
    gain_table: object
    r_los: float
    sigma2_total: float
    m_tilde: float


def nakagami_m_tilde(m):
    """(m!)^(-1/m), evaluated through lgamma to stay finite for large m."""
    return math.exp(-math.lgamma(m + 1.0) / m)


def nlos_mean_power(config, r_los):
    """Mean aggregate power received from interferers outside the LOS ball.

    The weak interferers on the annulus [r_los, r_net] are taken blocked,
    so each contributes activity p_t, mean joint gain q.G, unit-mean
    fading, power ratio rho and path loss r^(-alpha_N); averaging over the
    PPP gives

        rho * p_t * (q.G) * 2 pi lambda * (r_los^(2-aN) - r_net^(2-aN)) / (aN - 2),

    finite because alpha_N > 2.  Zero when the ball fills the network disk
    or no interferer transmits.  alpha_N <= 2 would flip the sign; no
    NetworkConfig holds it.
    ConfigError LosRadiusOutOfRange unless 0 <= r_los <= r_net (a NaN
    included), DensityTooHigh when the ball is so small that the radial
    term is not finite (above about 1.03e4 bodies/m^2 at W = 0.3 m,
    alpha_N = 3.4), and NlosPowerOverflow when its product with the
    prefactor passes the float range (power_ratio = 1e308).
    """
    if not (0.0 <= r_los <= config.net_radius):
        raise ConfigError("LosRadiusOutOfRange", f"r_los must lie in [0, net_radius] = "
                          f"[0, {config.net_radius}], got {r_los}")
    if r_los == config.net_radius or config.density == 0.0 or config.tx_probability == 0.0:
        return 0.0
    table = gain_pairs(config.tx_pattern, config.rx_pattern)
    a = 2.0 - config.alpha_nlos
    try:
        radial = (r_los ** a - config.net_radius ** a) / (config.alpha_nlos - 2.0)
    except (ZeroDivisionError, OverflowError):  # r_los == 0 or r_los^a > 1e308
        raise ConfigError("DensityTooHigh",
                          f"density {config.density} leaves a LOS ball of radius "
                          f"{r_los}; the mean NLOS interference power diverges") from None
    power = (config.power_ratio * config.tx_probability * table.mean_gain()
             * 2.0 * math.pi * config.density * radial)
    if not math.isfinite(power):
        raise ConfigError("NlosPowerOverflow", f"the mean NLOS interference power "
                          f"at LOS ball radius {r_los} passes the float range")
    return power


def coverage_params(config):
    """Precompute the beta-independent pieces of the coverage bound."""
    r_los = los_ball_radius(config.density, config.blockage_diameter,
                            config.net_radius)
    return CoverageParams(
        config=config,
        gain_table=gain_pairs(config.tx_pattern, config.rx_pattern),
        r_los=r_los,
        sigma2_total=config.noise_power + nlos_mean_power(config, r_los),
        m_tilde=nakagami_m_tilde(config.m_los),
    )


def signal_power(cfg):
    """Gt Gr R0^-alpha_L, the reference link's received power before
    fading; +inf past the float range, where Python's float power raises."""
    try:
        return (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
                * cfg.ref_distance ** (-cfg.alpha_los))
    except OverflowError:
        return math.inf


def beta_tilde(beta, params):
    """Normalized threshold beta * R0^alpha_L / (Gt * Gr).

    R0^alpha_L past the float range is +inf, where Python's float power
    raises.  A product inf * 0 is the threshold +inf, which nothing
    exceeds: an infinite SINR does not exceed the threshold +inf, and a
    zero one does not exceed 0.
    """
    cfg = params.config
    try:
        scale = cfg.ref_distance ** cfg.alpha_los
    except OverflowError:
        scale = math.inf
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bt = beta * scale / (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain)
    return np.where(np.isnan(bt) & ~np.isnan(beta), math.inf, bt)


def laplace_term(ell, bt, params):
    """Laplace transform of the LOS-ball interference at s = ell m mt bt.

    exp(-lambda pi p_t (R_LOS^2 - 2 sum_i q_i J_i)) with
    J_i = int_0^R_LOS (1 + ell mt bt rho G_i r^-aL)^-m r dr.  The unit-mean
    Gamma(m) interferer fading is already integrated out (its MGF cancels
    the factor m in s).  Equals 1 when the PPP is empty or silent, or at
    bt = 0.

    Broadcasts over ``ell`` and ``bt``: every radial integral of the
    broadcast grid is one integrand of a single batched quadrature, with
    one integrand per distinct joint gain G_i (the main-side and side-main
    pairs share theirs when the two patterns are equal).  All of them
    bisect one tree of [0, R_LOS], so r^-aL is taken once per distinct
    panel of a bisection level and shared by every integrand pending on
    it; each value is still the one that integrand gives alone.  The sum
    over i still runs pair by pair, in table order.  A float for scalar
    inputs, else an array of the broadcast shape.
    """
    cfg = params.config
    ell_b, bt_b = np.broadcast_arrays(np.asarray(ell, dtype=float),
                                      np.asarray(bt, dtype=float))
    out = np.ones(ell_b.shape)
    live = bt_b != 0.0
    if cfg.density != 0.0 and cfg.tx_probability != 0.0 and np.count_nonzero(live):
        R = params.r_los
        m = cfg.m_los
        scale = ell_b[live] * params.m_tilde * bt_b[live] * cfg.power_ratio
        pairs = [(q_i, G_i) for q_i, G_i in zip(params.gain_table.q, params.gain_table.G)
                 if q_i != 0.0]
        # pairs with one joint gain share their integrals: one integrand per
        # (distinct gain, live point), gain outermost
        gains, which = np.unique([G_i for _, G_i in pairs], return_inverse=True)
        c = np.concatenate([scale * G for G in gains])

        def integrand(index, nodes, col):
            # (1 + c r^-aL)^-m r: r^-aL once per distinct panel (a column
            # of nodes), gathered to each integrand's panels by col and
            # finished in place; r^-aL c may overflow to inf near r = 0 in
            # a tiny ball, where the factor rounds to 0 anyway
            with np.errstate(over="ignore"):
                v = np.take(nodes ** (-cfg.alpha_los), col, axis=1)
                v *= c[index]
            v += 1.0
            v **= -m
            v *= np.take(nodes, col, axis=1)
            return v

        radial = integrate_batch(integrand, c.size, 0.0, R,
                                 abs_tol=_LAPLACE_ABS_TOL, rel_tol=_LAPLACE_REL_TOL)
        J = radial.reshape(gains.size, scale.size)
        total = np.zeros(scale.size)
        for (q_i, _), g in zip(pairs, which.tolist()):
            total += q_i * J[g]
        out[live] = np.exp(-cfg.density * math.pi * cfg.tx_probability
                           * (R * R - 2.0 * total))
    return float(out) if out.ndim == 0 else out


def coverage_ccdf(beta, params):
    """Upper bound on P(SINR > beta); exact for m = 1.

    Sum over ell = 1..m of C(m, ell) (-1)^(ell+1) exp(-ell m mt bt sigma2)
    * laplace_term(ell, bt).  The alternating terms are accumulated with
    exact compensated summation and the result clamped to [0, 1] (roundoff
    can push it out by a few ulps).  Vectorized over beta of any shape;
    one laplace_term call covers every (ell, beta) pair.  A NaN beta is
    ConfigError ThresholdNaN, a negative one ThresholdNegative, before any
    integral runs.  No SINR exceeds the threshold +inf (the inequality is
    strict), so a beta whose normalized threshold is +inf gives 0 by rule,
    and only the finite ones are evaluated.
    """
    cfg = params.config
    beta_arr = check_thresholds("SINR thresholds", beta)
    bts = np.ravel(beta_tilde(beta_arr, params))
    finite = np.isfinite(bts)
    bts = bts[finite]
    m = cfg.m_los
    ell = np.arange(1, m + 1, dtype=float)[:, None]
    coef = np.array([(1.0 if k % 2 == 1 else -1.0) * math.comb(m, k)
                     for k in range(1, m + 1)])[:, None]
    noise_fac = np.exp(-ell * m * params.m_tilde * bts * params.sigma2_total)
    terms = coef * noise_fac * laplace_term(ell, bts, params)
    out = np.zeros(finite.size)
    out[finite] = [min(1.0, max(0.0, math.fsum(col))) for col in terms.T.tolist()]
    return float(out[0]) if beta_arr.ndim == 0 else out.reshape(beta_arr.shape)


def spectral_efficiency_ccdf(t, params):
    """P(log2(1 + SINR) > t) = coverage_ccdf(2^t - 1).  t in bits/s/Hz;
    a NaN or negative t is refused as coverage_ccdf refuses a beta."""
    t_arr = check_thresholds("spectral efficiency thresholds", t)
    return coverage_ccdf(rate_to_sinr(t_arr), params)


_SE_TAIL_CUT = 1e-6


def ergodic_spectral_efficiency(params):
    """Mean spectral efficiency, integral of its CCDF over t >= 0.

    The CCDF decays doubly exponentially in t, so the integral is truncated
    at the first power of two where it falls below 1e-6 and evaluated by
    adaptive quadrature; the truncated tail is below t_max * 1e-6.  The
    search ends by t_max = 1024: 2^1024 overflows to the threshold +inf,
    whose CCDF is 0.
    ConfigError SinrUnbounded unless signal_power / sigma2_total is a
    finite float.  With sigma2_total == 0 (no noise, and no NLOS
    interference: zero density, p_t = 0, or a LOS ball that fills the
    network disk) the LOS-ball PPP is empty with probability
    exp(-lambda pi p_t R_LOS^2) > 0, where the SINR is infinite, so the
    mean rate does not exist; past the float range no route computes it.
    """
    sigma2 = params.sigma2_total
    if not (sigma2 > 0.0 and math.isfinite(signal_power(params.config) / sigma2)):
        raise ConfigError("SinrUnbounded",
                          "the reference SNR is infinite or past the float range "
                          "(no noise and no NLOS interference, or an overflow), "
                          "so the mean rate is not a finite number")
    t_max = 1.0
    while spectral_efficiency_ccdf(t_max, params) >= _SE_TAIL_CUT:
        t_max *= 2.0
    return adaptive_gauss_legendre(lambda t: spectral_efficiency_ccdf(t, params),
                                   0.0, t_max, abs_tol=1e-6, rel_tol=1e-6)
