"""End-to-end validation matrix for the whole package.

Each test is one acceptance gate with its tolerance and (where stated) a
runtime budget.  Gates 1-3 check the closed forms against independent
numerical oracles, 4-8 cross-validate analysis against Monte Carlo at the
canonical figure-style setups, 9 pins the interference-free degenerate
case, and 10 locks artifact determinism.

The canonical setups leave four physical constants open (path-loss
exponents, reference distance, noise power); the values conftest's
figure_config fills are a plausible dense-indoor choice (alpha_L = 3.2,
alpha_N = 3.4, R0 = 0.25 m, unit noise) and every tolerance below is met
with them.
"""

import dataclasses
import math
import time

import numpy as np
from scipy import integrate

from conftest import figure_config
from oracles import annulus_interference, segment_dist_sq
from wearnet import analytic, experiments, geometry, losball, mcsim, model


def test_01_mean_los_closed_form_matches_quadrature():
    # closed-form mean LOS interferer count vs adaptive quadrature of the
    # retained intensity, rel error <= 1e-9 on a 60-point grid, < 5 s
    start = time.perf_counter()
    cases = [(lam, W, r_net)
             for lam in (0.05, 0.5, 1.0, 3.0, 7.0)
             for W in (0.05, 0.3, 0.6, 1.2)
             for r_net in (2.0, 10.0, 40.0)]
    assert len(cases) == 60
    worst = 0.0
    for lam, W, r_net in cases:
        closed = losball.mean_los_interferers(lam, W, r_net)
        f = lambda r: 2.0 * math.pi * lam * r * math.exp(
            -lam * (r * W + math.pi * W * W / 4.0))
        oracle, _ = integrate.quad(f, 0.0, r_net, epsabs=1e-14, epsrel=1e-13)
        worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst rel error {worst:.2e}"
    assert elapsed < 5.0, f"took {elapsed:.1f} s"
    print(f"PASS mean-count closed form vs quadrature: "
          f"worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_02_blockage_probability_matches_sampled_frequency():
    # blockage probability vs the hit frequency of 1e5 sampled blocker
    # fields per link length, using the test-side segment-distance oracle;
    # 3 sigma binomial bands, < 60 s
    start = time.perf_counter()
    lam, W, n = 3.0, 0.3, 100_000
    rng = np.random.default_rng(101)
    zs = []
    for r in (0.5, 1.0, 2.0):
        R = r + W / 2.0  # covering disk: nothing farther can touch the link
        counts = rng.poisson(lam * math.pi * R * R, size=n)
        dep = np.repeat(np.arange(n), counts)
        tot = int(counts.sum())
        rad = R * np.sqrt(rng.uniform(size=tot))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=tot)
        hit = segment_dist_sq(r, 0.0, rad * np.cos(ang),
                              rad * np.sin(ang)) <= (W / 2.0) ** 2
        freq = np.mean(np.bincount(dep[hit], minlength=n) > 0)
        p = geometry.blockage_probability(r, lam, W)
        se = math.sqrt(p * (1.0 - p) / n)
        zs.append(abs(freq - p) / se)
        assert abs(freq - p) < 3.0 * se, (r, freq, p, se)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    print(f"PASS blockage probability vs frequency: z = "
          f"{', '.join(f'{z:.2f}' for z in zs)}, {elapsed:.1f} s")


def test_03_los_ball_radius_converges_to_dense_limit():
    # finite-network radius at r_net = 1e3 within 1e-6 relative of the
    # closed-form dense-network limit, for lambda in {1, 3}, W = 0.3
    worst = 0.0
    for lam in (1.0, 3.0):
        finite = losball.los_ball_radius(lam, 0.3, 1000.0)
        limit = losball.los_ball_radius_limit(lam, 0.3)
        worst = max(worst, abs(finite - limit) / limit)
    assert worst <= 1e-6, f"worst rel gap {worst:.2e}"
    print(f"PASS LOS-ball limit consistency: worst rel gap {worst:.2e}")


def test_04_mean_los_count_decreases_with_density():
    # analytic mean strictly decreasing over lambda in {1..5} at W = 0.3,
    # r_net = 10, with Monte Carlo geometric counts within 3 sigma
    lams = (1.0, 2.0, 3.0, 4.0, 5.0)
    means = [losball.mean_los_interferers(lam, 0.3, 10.0) for lam in lams]
    assert all(a > b for a, b in zip(means, means[1:])), means
    cfg5 = figure_config("fig5")
    zs = []
    for i, lam in enumerate(lams):
        cfg = dataclasses.replace(cfg5, density=lam)
        mc, se = mcsim.estimate_mean_los_count(cfg, 3000, master_seed=102 + i)
        zs.append(abs(mc - means[i]) / se)
        assert abs(mc - means[i]) < 3.0 * se, (lam, mc, means[i], se)
    print(f"PASS mean LOS count vs density: analytic "
          f"{', '.join(f'{m:.2f}' for m in means)} decreasing; "
          f"z = {', '.join(f'{z:.2f}' for z in zs)}")


def test_05_weak_interference_power_matches_sampling():
    # closed-form mean power from the blocked annulus vs 1e5 sampled
    # deployments with activity/antenna/fading marks; 3 sigma, < 2 min
    start = time.perf_counter()
    cfg = figure_config("fig6")
    r_los = losball.los_ball_radius(cfg.density, cfg.blockage_diameter,
                                    cfg.net_radius)
    closed = analytic.nlos_mean_power(cfg, r_los)
    mc, se = mcsim._mean_and_se(annulus_interference(cfg, r_los, 100_000, 103))
    elapsed = time.perf_counter() - start
    z = abs(mc - closed) / se
    assert z < 3.0, (mc, closed, se)
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    print(f"PASS weak-interference power: closed {closed:.5f}, "
          f"sampled {mc:.5f} (se {se:.5f}, z {z:.2f}), {elapsed:.1f} s")


def test_06_coverage_bound_tracks_losball_simulation(tmp_path):
    # analytic SINR CCDF vs LOS-ball simulation at the m = 3, p_t = 0.8
    # setup: sup-norm <= 0.03 and analytic >= empirical - 3 se at every
    # grid point over beta in [-10, 30] dB; 1e5 trials, < 5 min
    start = time.perf_counter()
    cfg = figure_config("fig7")
    plan = experiments.ExperimentPlan(
        kind="coverage_compare", config=cfg,
        grid=tuple(np.arange(-10.0, 31.0, 1.0)),
        out_dir=str(tmp_path), seed=104, trials=100_000, tolerance=0.03)
    result = experiments.run_plan(plan)  # raises ToleranceExceeded on miss
    elapsed = time.perf_counter() - start
    assert result["status"] == "PASS"
    assert result["sup_norm"] <= 0.03
    assert result["bound_direction"] is True
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    print(f"PASS coverage bound vs simulation: sup-norm "
          f"{result['sup_norm']:.4f} <= 0.03, bound direction ok, {elapsed:.1f} s")


def test_07_full_and_losball_se_distributions_agree(tmp_path):
    # spectral-efficiency CDFs from the full blockage-field simulation and
    # the LOS-ball reduction: sup-norm <= 0.05 at 1e5 trials, < 10 min
    start = time.perf_counter()
    cfg = figure_config("fig6")
    plan = experiments.ExperimentPlan(
        kind="se_compare", config=cfg,
        grid=tuple(np.arange(0.0, 12.01, 0.25)),
        out_dir=str(tmp_path), seed=105, trials=100_000, tolerance=0.05)
    result = experiments.run_plan(plan)
    elapsed = time.perf_counter() - start
    assert result["status"] == "PASS"
    assert result["sup_norm"] <= 0.05
    assert elapsed < 600.0, f"took {elapsed:.1f} s"
    print(f"PASS full vs LOS-ball SE distributions: sup-norm "
          f"{result['sup_norm']:.4f} <= 0.05, {elapsed:.1f} s")


def test_08_ergodic_se_rises_with_nakagami_order(tmp_path):
    # ergodic spectral efficiency over m in {1, 2, 4, 8, 16} at the
    # lambda = 2 setup: analytic values nondecreasing, Monte Carlo trend
    # consistent within 2 se, and the analytic value never below MC - 2 se.
    # (The analytic integral of the coverage bound exceeds the true mean by
    # a growing margin for m > 1 -- about 0.10 to 0.45 bits/s/Hz here --
    # so pointwise equality against MC is not the contract; the trend and
    # the bound direction are.)
    cfg = figure_config("fig8")
    plan = experiments.ExperimentPlan(
        kind="nakagami_sweep", config=cfg, grid=(1, 2, 4, 8, 16),
        out_dir=str(tmp_path), seed=106, trials=10_000, tolerance=2.0)
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS"
    assert (result["analytic_nondecreasing"] and result["mc_trend"]
            and result["upper_bound"])
    rows = [ln.split(",") for ln in
            (tmp_path / "nakagami_sweep.csv").read_text().splitlines()[2:]]
    gaps = [float(a) - float(mc) for _, a, mc, _ in rows]
    print(f"PASS ergodic SE vs Nakagami order: analytic nondecreasing, "
          f"MC trend within 2 se, bound gaps "
          f"{', '.join(f'{g:.3f}' for g in gaps)} b/s/Hz")


def test_09_interference_free_rayleigh_exactness():
    # lambda = 0, m = 1: the bound collapses to exp(-bt sigma2_noise)
    # exactly (<= 1e-12 across the beta grid) and simulation agrees
    # within 3 sigma at every grid point
    cfg = figure_config("fig6", **{"lambda": 0.0})
    params = analytic.coverage_params(cfg)
    beta_db = np.arange(-10.0, 31.0, 1.0)
    beta = model.db_to_linear(beta_db)
    want = np.exp(-analytic.beta_tilde(beta, params) * cfg.noise_power)
    got = np.asarray(analytic.coverage_ccdf(beta, params))
    gap = float(np.max(np.abs(got - want)))
    assert gap <= 1e-12, f"analytic gap {gap:.2e}"
    dist = mcsim.simulate_ccdf(mcsim.FULL, cfg, 20_000, beta, master_seed=107)
    se = np.maximum(dist.stderr, 1e-12)
    maxz = float(np.max(np.abs(dist.ccdf - want) / se))
    assert maxz < 3.0, f"max z {maxz:.2f}"
    print(f"PASS interference-free exactness: analytic gap {gap:.1e}, "
          f"simulation max z {maxz:.2f}")


def test_10_fixed_seed_reruns_are_byte_identical(tmp_path):
    # the coverage-compare and se-compare pipelines, rerun with the same
    # seed, must reproduce their CSV artifacts byte for byte (trial count
    # reduced; identity is per-trial, independent of how many run)
    for kind, fid, name in (("coverage_compare", "fig7", "coverage_compare.csv"),
                            ("se_compare", "fig6", "se_compare.csv")):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / kind / sub
            plan = experiments.ExperimentPlan(
                kind=kind, config=figure_config(fid),
                grid=tuple(np.arange(0.0, 10.1, 1.0)), out_dir=str(out),
                seed=108, trials=2000, tolerance=1.0)
            experiments.run_plan(plan)
            blobs.append((out / name).read_bytes())
        assert blobs[0] == blobs[1], f"{kind} rerun differed"
    print("PASS determinism: coverage-compare and se-compare reruns byte-identical")
