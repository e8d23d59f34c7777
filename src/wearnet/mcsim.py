"""Seeded Monte Carlo engine with two fidelity modes.

FULL mode samples the physical model: interferers on the network disk,
blockage centers on the disk of radius r_net + W/2, exact geometric LOS
classification, Nakagami fading of order m on LOS links and m_nlos on
blocked ones, and the sectorized-antenna activity marks.  The reference
link is always LOS by assumption.

LOSBALL mode samples the reduced model behind the closed forms: interferers
only inside the equivalent LOS ball, all unblocked, with the mean power of
everything outside the ball added to the denominator as a constant.

Reproducibility: trial k of a run with master seed s draws from a PCG64
generator seeded with SeedSequence((s, k)).  That per-trial substream rule
makes results independent of how trials are split across workers; counts
and exactly rounded sums (math.fsum) make the aggregation order-insensitive.

Per-trial draw order (fixed, part of the reproducibility contract):
interferer PPP, blockage PPP (FULL only), activity uniforms, LOS fading,
NLOS fading (FULL only), reference fading.  A deployment of
sample_annulus_interference_mean draws the annulus PPP, activity uniforms
and NLOS fading (its LOS fading draw has size 0 and takes no generator
state).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import nlos_mean_power
from .geometry import classify_los, sample_ppp_annulus, sample_ppp_disk
from .losball import los_ball_radius
from .model import validate

FULL = "full"
LOSBALL = "losball"


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Exceedance estimates P(value > threshold) on a sorted grid.

    stderr is the pointwise binomial standard error sqrt(p(1-p)/n).
    """

    thresholds: np.ndarray
    ccdf: np.ndarray
    n_trials: int
    stderr: np.ndarray

    @property
    def cdf(self):
        return 1.0 - self.ccdf


def sample_nakagami_power(m, rng, size=None):
    """Unit-mean Nakagami-m power gain: Gamma with shape m, scale 1/m."""
    if m < 1:
        raise ValueError(f"Nakagami shape must be >= 1, got {m}")
    return rng.gamma(m, 1.0 / m, size)


def _substream(master_seed, k):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, k))))


def _normalize_mode(mode):
    mode = str(mode).lower()
    if mode not in (FULL, LOSBALL):
        raise ValueError(f"mode must be '{FULL}' or '{LOSBALL}', got {mode!r}")
    return mode


def sample_full_field(cfg, rng):
    """One FULL-mode deployment: interferers (r, phi) on the network disk,
    then blockage centers on the disk of radius r_net + W/2 (so no edge
    interferer's blocking region is truncated); returns (r, phi, los mask)."""
    r, phi = sample_ppp_disk(cfg.density, cfg.net_radius, rng)
    br, bphi = sample_ppp_disk(cfg.density,
                               cfg.net_radius + 0.5 * cfg.blockage_diameter, rng)
    return r, phi, classify_los(r, phi, br, bphi, cfg.blockage_diameter)


def _draw_marks(cfg, phi, rng):
    """Activity/transmit-gain mark and receiver-side gain per interferer.

    The transmit mark is the categorical variable: 0 with probability
    1 - p_t, main-lobe gain with p_t * theta_t/2pi, side-lobe gain
    otherwise.  The receiver sees its main lobe iff the interferer angle
    falls in the closed wedge of width theta_r around the pointing
    direction, fixed at 0 without loss of generality.
    """
    u = rng.random(phi.size)
    at = cfg.tx_pattern.main_lobe_fraction
    tx_gain = np.where(u < cfg.tx_probability * at,
                       cfg.tx_pattern.main_gain,
                       np.where(u < cfg.tx_probability,
                                cfg.tx_pattern.side_gain, 0.0))
    wrapped = np.mod(phi + math.pi, 2.0 * math.pi) - math.pi
    rx_gain = np.where(np.abs(wrapped) <= 0.5 * cfg.rx_pattern.beamwidth,
                       cfg.rx_pattern.main_gain, cfg.rx_pattern.side_gain)
    return tx_gain, rx_gain


def _interference(cfg, r, phi, los, rng):
    """Aggregate interference power of one field of interferers at (r, phi).

    Draws the activity/antenna marks, then the fading: Nakagami m_los on
    the links of the LOS mask ``los`` and m_nlos on the others, with path
    loss r^-alpha_L or r^-alpha_N.  ``los=None`` (LOSBALL) means every link
    is LOS: one m_los draw and r^-alpha_L only.
    """
    tx_gain, rx_gain = _draw_marks(cfg, phi, rng)
    if los is None:
        h = sample_nakagami_power(cfg.m_los, rng, r.size)
        path = r ** (-cfg.alpha_los)
    else:
        h = np.empty(r.size)
        idx_los = np.flatnonzero(los)
        h[idx_los] = sample_nakagami_power(cfg.m_los, rng, idx_los.size)
        idx_nlos = np.flatnonzero(~los)
        h[idx_nlos] = sample_nakagami_power(cfg.m_nlos, rng, idx_nlos.size)
        path = np.where(los, r ** (-cfg.alpha_los), r ** (-cfg.alpha_nlos))
    return cfg.power_ratio * float(np.sum(tx_gain * rx_gain * h * path))


# --- batched, seed-deterministic runs ------------------------------------

def _run_sinr_range(mode, config, start, stop, master_seed):
    mode = _normalize_mode(mode)
    cfg = validate(config)
    signal_coef = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
                   * cfg.ref_distance ** (-cfg.alpha_los))
    r_los = los_ball_radius(cfg.density, cfg.blockage_diameter, cfg.net_radius)
    # LOSBALL replaces everything outside the ball by its mean power.
    sigma2 = cfg.noise_power
    if mode == LOSBALL:
        sigma2 += nlos_mean_power(cfg, r_los)
    out = np.empty((stop - start, 2))
    for k in range(start, stop):
        rng = _substream(master_seed, k)
        if mode == FULL:
            r, phi, los = sample_full_field(cfg, rng)
        else:
            r, phi = sample_ppp_disk(cfg.density, r_los, rng)
            los = None
        interference = _interference(cfg, r, phi, los, rng)
        h0 = float(sample_nakagami_power(cfg.m_los, rng))
        out[k - start, 0] = signal_coef * h0 / (sigma2 + interference)
        out[k - start, 1] = interference
    return out


def _run_los_count_range(config, start, stop, master_seed):
    cfg = validate(config)
    out = np.empty(stop - start, dtype=np.int64)
    for k in range(start, stop):
        _, _, los = sample_full_field(cfg, _substream(master_seed, k))
        out[k - start] = int(np.count_nonzero(los))
    return out


def _split_ranges(n_trials, workers):
    if workers == 0:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, n_trials))
    bounds = np.linspace(0, n_trials, workers + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _map_ranges(fn, args_list, workers):
    if len(args_list) == 1 or workers == 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=len(args_list)) as pool:
        return list(pool.map(fn, *zip(*args_list)))


def simulate_sinr_samples(mode, config, n_trials, master_seed, workers=1):
    """Per-trial (sinr, interference) array, shape (n_trials, 2).

    Trial k is fully determined by (mode, config, master_seed, k), so any
    worker split returns the identical array.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ranges = _split_ranges(n_trials, workers)
    parts = _map_ranges(_run_sinr_range,
                        [(mode, config, a, b, master_seed) for a, b in ranges],
                        workers)
    return np.concatenate(parts, axis=0)


def empirical_ccdf(samples, thresholds):
    """Exceedance counts of ``samples`` on an ascending threshold grid."""
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise ValueError("thresholds must be a nonempty 1-d grid")
    if np.any(np.diff(thresholds) < 0.0):
        raise ValueError("thresholds must be sorted ascending")
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    exceed = n - np.searchsorted(samples, thresholds, side="right")
    p = exceed / n
    return EmpiricalDistribution(thresholds=thresholds, ccdf=p, n_trials=n,
                                 stderr=np.sqrt(p * (1.0 - p) / n))


def simulate_ccdf(mode, config, n_trials, thresholds, master_seed, workers=1):
    """Empirical P(SINR > beta) on the given ascending linear-SINR grid."""
    samples = simulate_sinr_samples(mode, config, n_trials, master_seed, workers)
    return empirical_ccdf(samples[:, 0], thresholds)


def simulate_se_ccdf(mode, config, n_trials, t_grid, master_seed, workers=1):
    """Empirical P(log2(1 + SINR) > t) on an ascending grid of t (bits/s/Hz).

    Exceedance is counted on the equivalent SINR thresholds 2^t - 1, so the
    estimate shares every sample with simulate_ccdf.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    samples = simulate_sinr_samples(mode, config, n_trials, master_seed, workers)
    dist = empirical_ccdf(samples[:, 0], np.exp2(t_grid) - 1.0)
    return EmpiricalDistribution(thresholds=t_grid, ccdf=dist.ccdf,
                                 n_trials=dist.n_trials, stderr=dist.stderr)


def _mean_and_se(values):
    n = values.size
    mean = math.fsum(values) / n
    if n < 2:
        return mean, math.inf
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_ergodic_se(mode, config, n_trials, master_seed, workers=1):
    """Monte Carlo mean spectral efficiency; returns (mean, standard error)."""
    samples = simulate_sinr_samples(mode, config, n_trials, master_seed, workers)
    return _mean_and_se(np.log2(1.0 + samples[:, 0]))


def estimate_mean_los_count(config, n_deployments, master_seed, workers=1):
    """Mean geometric count of unblocked interferers; returns (mean, se).

    Pure geometry: interferers on the network disk, blockages on the
    enlarged disk, exact classification; no marks or fading involved.
    """
    if n_deployments < 1:
        raise ValueError("n_deployments must be >= 1")
    ranges = _split_ranges(n_deployments, workers)
    parts = _map_ranges(_run_los_count_range,
                        [(config, a, b, master_seed) for a, b in ranges],
                        workers)
    return _mean_and_se(np.concatenate(parts).astype(float))


def sample_annulus_interference_mean(config, r_los, n_deployments, master_seed):
    """Mean aggregate power from interferers on the annulus [r_los, r_net],
    all treated as blocked (path-loss exponent alpha_nlos, fading m_nlos),
    with activity and antenna marks sampled; returns (mean, se).

    This samples the defining expectation whose closed form is
    nlos_mean_power; the two must agree within Monte Carlo error.
    """
    cfg = validate(config)
    totals = np.empty(n_deployments)
    for k in range(n_deployments):
        rng = _substream(master_seed, k)
        r, phi = sample_ppp_annulus(cfg.density, r_los, cfg.net_radius, rng)
        totals[k] = _interference(cfg, r, phi, np.zeros(r.size, dtype=bool), rng)
    return _mean_and_se(totals)
