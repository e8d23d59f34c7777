"""Brute-force reference implementations the tests check the package against.

segment_dist_sq / is_blocked: the exact blockage test of one link against
every blockage center, with no angular pruning and no distance bands;
`geometry.classify_los` must agree with it link by link.

t_factor: the per-interferer Laplace factor whose radial average over the
LOS ball `analytic.laplace_term` evaluates as one batched integral.

laplace_term: that transform with one radial integral per gain pair,
duplicate joint gains included, and every power of r taken panel by panel
on the panel's own nodes; `analytic.laplace_term`, which integrates each
distinct joint gain once and takes r^-alpha_L once per distinct panel of a
level, must give the same bits.

t_max: the ergodic rate's truncation point, searched one power of two at
a time; `analytic.ergodic_spectral_efficiency`, which evaluates five powers
of two per CCDF call, must find the same point.

gauss_legendre: the adaptive 20-point rule for one integrand, panel by
panel, with the weighted node sum added node by node in Python floats;
`quadrature.integrate_batch`, which sums the nodes of a whole batch of
panels in one numpy reduction, must give the same bits.

substream / sinr_samples: trial k's generator built by numpy's own
constructors, and a plain trial-by-trial Monte Carlo loop on it, with its
own FULL field draw (`geometry.sample_ppp_disk` on the two disks, then
`geometry.classify_los`) and separate link and reference fading draws; the
engine in `mcsim`, which sets the substream states in bulk and draws,
classifies and sums a chunk of trials at once, must give the same bytes.

sample_ppp_annulus / annulus_interference: a PPP on an annulus, and the
sampled side of the weak-interference gate built on it, the per-deployment
power of the blocked interferers on [r_los, r_net], whose mean
`analytic.nlos_mean_power` gives in closed form.
"""

import math

import numpy as np

from wearnet import geometry, mcsim
from wearnet.analytic import (_LAPLACE_ABS_TOL, _LAPLACE_REL_TOL, _SE_TAIL_CUT,
                              nlos_mean_power, spectral_efficiency_ccdf)
from wearnet.losball import los_ball_radius
from wearnet.quadrature import integrate_batch


def segment_dist_sq(px, py, cx, cy):
    """Squared distance from points (cx, cy) to segments [origin, (px, py)].

    All arguments broadcast together.  A zero-length segment degenerates to
    the origin itself.
    """
    seg_sq = px * px + py * py
    dot = cx * px + cy * py
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(seg_sq > 0.0, dot / np.where(seg_sq > 0.0, seg_sq, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dx = cx - t * px
    dy = cy - t * py
    return dx * dx + dy * dy


def is_blocked(r, phi, d, psi, W):
    """Exact blockage test for one link against all blockage centers.

    Link from the origin to polar point (r, phi); blockage centers at
    (d, psi) with blocking diameter W.  True when any center lies within
    W/2 of the link segment (boundary contact counts as blocked).
    """
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        return False
    px, py = r * math.cos(phi), r * math.sin(phi)
    dist_sq = segment_dist_sq(px, py, d * np.cos(psi), d * np.sin(psi))
    return bool(np.any(dist_sq <= 0.25 * W * W))


def t_factor(gain_r, R, ell, bt, params):
    """Per-interferer Laplace factor at distance R seen with receiver gain
    gain_r: (1 - p_t) + p_t * E_tx-lobe[(1 + ell mt bt Gtx gain_r R^-aL)^-m].

    Averages the activity/transmit-gain mark: silent with probability
    1 - p_t, else main- or side-lobe transmit gain by lobe fraction.
    """
    cfg = params.config
    scale = ell * params.m_tilde * bt * cfg.power_ratio * gain_r * np.asarray(R, dtype=float) ** (-cfg.alpha_los)
    at = cfg.tx_pattern.main_lobe_fraction
    main = (1.0 + scale * cfg.tx_pattern.main_gain) ** (-cfg.m_los)
    side = (1.0 + scale * cfg.tx_pattern.side_gain) ** (-cfg.m_los)
    return (1.0 - cfg.tx_probability) + cfg.tx_probability * (at * main + (1.0 - at) * side)


def laplace_term(ell, bt, params):
    """exp(-lambda pi p_t (R_LOS^2 - 2 sum_i q_i J_i)), one integral J_i per
    gain pair with q_i != 0, for array ``ell`` and ``bt`` of one shape."""
    cfg = params.config
    ell_b, bt_b = np.broadcast_arrays(np.asarray(ell, dtype=float),
                                      np.asarray(bt, dtype=float))
    out = np.ones(ell_b.shape)
    live = bt_b != 0.0
    if cfg.density == 0.0 or cfg.tx_probability == 0.0 or not np.any(live):
        return out
    R = params.r_los
    scale = ell_b[live] * params.m_tilde * bt_b[live] * cfg.power_ratio
    pairs = [(q_i, G_i) for q_i, G_i in zip(params.gain_table.q, params.gain_table.G)
             if q_i != 0.0]
    c = np.concatenate([scale * G_i for _, G_i in pairs])

    def integrand(index, nodes, col):
        # panel by panel: each panel's own nodes first, nothing shared
        r = nodes[:, col]
        with np.errstate(over="ignore"):
            v = r ** (-cfg.alpha_los)
            v *= c[index]
        v += 1.0
        v **= -cfg.m_los
        v *= r
        return v

    radial = integrate_batch(integrand, c.size, 0.0, R,
                             abs_tol=_LAPLACE_ABS_TOL, rel_tol=_LAPLACE_REL_TOL)
    total = np.zeros(scale.size)
    for (q_i, _), J_i in zip(pairs, radial.reshape(len(pairs), scale.size)):
        total += q_i * J_i
    out[live] = np.exp(-cfg.density * math.pi * cfg.tx_probability
                       * (R * R - 2.0 * total))
    return out


def t_max(params):
    """The first t = 1, 2, 4, ... whose spectral-efficiency CCDF is below
    the ergodic rate's tail cut, one CCDF call per t."""
    t = 1.0
    while spectral_efficiency_ccdf(t, params) >= _SE_TAIL_CUT:
        t *= 2.0
    return t


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def _panel(f, lo, hi):
    half = 0.5 * (hi - lo)
    values = f(0.5 * (lo + hi) + half * _NODES).tolist()
    total = float(_WEIGHTS[0]) * values[0]
    for w, v in zip(_WEIGHTS[1:].tolist(), values[1:]):
        total += w * v
    return half * total


def gauss_legendre(f, a, b, abs_tol, rel_tol):
    """The adaptive rule of `quadrature.integrate_batch` for one vectorized
    ``f`` on [a, b] (a < b), without its panel budget: a panel whose two
    halves differ from it by more than its share of the tolerance, and
    that is wider than 16 ulps of its midpoint, is bisected; the accepted
    halves' sums are added by math.fsum."""
    whole = _panel(f, a, b)
    tol_density = max(abs_tol, rel_tol * abs(whole)) / (b - a)
    pending, done = [(float(a), float(b), whole)], []
    while pending:
        lo, hi, whole = pending.pop()
        mid = 0.5 * (lo + hi)
        left, right = _panel(f, lo, mid), _panel(f, mid, hi)
        refined = left + right
        if (abs(refined - whole) <= tol_density * (hi - lo)
                or hi - lo <= 16.0 * np.spacing(abs(mid))):
            done.append(refined)
        else:
            pending += [(lo, mid, left), (mid, hi, right)]
    return math.fsum(done)


def substream(master_seed, k):
    """Trial k's generator: PCG64 seeded with SeedSequence((master_seed, k))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, k))))


def _interference(cfg, r, phi, los, rng):
    # one trial: marks, fading, path loss and np.sum; los None is LOSBALL
    u = rng.random(phi.size)
    at = cfg.tx_pattern.main_lobe_fraction
    tx_gain = np.where(u < cfg.tx_probability * at, cfg.tx_pattern.main_gain,
                       np.where(u < cfg.tx_probability,
                                cfg.tx_pattern.side_gain, 0.0))
    wrapped = np.mod(phi + math.pi, 2.0 * math.pi) - math.pi
    rx_gain = np.where(np.abs(wrapped) <= 0.5 * cfg.rx_pattern.beamwidth,
                       cfg.rx_pattern.main_gain, cfg.rx_pattern.side_gain)
    if los is None:
        h = mcsim.sample_nakagami_power(cfg.m_los, rng, r.size)
        path = r ** (-cfg.alpha_los)
    else:
        h = np.empty(r.size)
        idx_los = np.flatnonzero(los)
        h[idx_los] = mcsim.sample_nakagami_power(cfg.m_los, rng, idx_los.size)
        idx_nlos = np.flatnonzero(~los)
        h[idx_nlos] = mcsim.sample_nakagami_power(cfg.m_nlos, rng, idx_nlos.size)
        path = np.where(los, r ** (-cfg.alpha_los), r ** (-cfg.alpha_nlos))
    return cfg.power_ratio * float(np.sum(tx_gain * rx_gain * h * path))


def sinr_samples(mode, cfg, start, stop, master_seed):
    """(sinr, interference) of trials [start, stop), one trial at a time."""
    signal_coef = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
                   * cfg.ref_distance ** (-cfg.alpha_los))
    r_los = los_ball_radius(cfg.density, cfg.blockage_diameter, cfg.net_radius)
    sigma2 = cfg.noise_power
    if mode == mcsim.LOSBALL:
        sigma2 += nlos_mean_power(cfg, r_los)
    out = np.empty((stop - start, 2))
    for k in range(start, stop):
        rng = substream(master_seed, k)
        if mode == mcsim.FULL:
            # the engine's FULL draw, taken independently: interferers on
            # the network disk, then blockage centers on the disk W/2 wider
            r, phi = geometry.sample_ppp_disk(cfg.density, cfg.net_radius, rng)
            d, psi = geometry.sample_ppp_disk(
                cfg.density, cfg.net_radius + cfg.blockage_diameter / 2.0, rng)
            los = geometry.classify_los(r, phi, d, psi, cfg.blockage_diameter)
        else:
            r, phi = mcsim.sample_ppp_disk(cfg.density, r_los, rng)
            los = None
        interference = _interference(cfg, r, phi, los, rng)
        h0 = float(mcsim.sample_nakagami_power(cfg.m_los, rng))
        out[k - start, 0] = signal_coef * h0 / (sigma2 + interference)
        out[k - start, 1] = interference
    return out


def sample_ppp_annulus(density, r_in, r_out, rng):
    """Sample a homogeneous PPP on the annulus r_in <= r <= r_out.

    Radii follow the pdf 2r/(r_out^2 - r_in^2); angles are uniform; the
    count is Poisson(density * pi * (r_out^2 - r_in^2)).  Zero density
    yields an empty sample.
    """
    if not (0.0 <= r_in < r_out):
        raise ValueError(f"need 0 <= r_in < r_out, got [{r_in}, {r_out}]")
    area = math.pi * (r_out * r_out - r_in * r_in)
    n = rng.poisson(density * area) if density > 0.0 else 0
    r = np.sqrt(r_in * r_in + (r_out * r_out - r_in * r_in) * rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    return r, phi


def annulus_interference(cfg, r_los, n_deployments, master_seed):
    """Per-deployment interference from the annulus [r_los, r_net], every
    link blocked (path-loss exponent alpha_nlos, fading m_nlos), with the
    activity and antenna marks sampled; deployment k draws the annulus PPP,
    the activity uniforms and the fading from substream(master_seed, k)."""
    totals = np.empty(n_deployments)
    for k in range(n_deployments):
        rng = substream(master_seed, k)
        r, phi = sample_ppp_annulus(cfg.density, r_los, cfg.net_radius, rng)
        totals[k] = _interference(cfg, r, phi, np.zeros(r.size, dtype=bool), rng)
    return totals
