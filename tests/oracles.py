"""Brute-force reference implementations the tests check the package against.

segment_dist_sq / is_blocked: the exact blockage test of one link against
every blockage center, with no angular pruning and no distance bands;
`geometry.classify_los` must agree with it link by link.

t_factor: the per-interferer Laplace factor whose radial average over the
LOS ball `analytic.laplace_term` evaluates as one batched integral.
"""

import math

import numpy as np


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
