"""Poisson deployment sampling and body-blockage geometry."""

import math

import numpy as np

from conftest import make_config
from wearnet import geometry, mcsim


def test_annulus_count_and_support():
    rng = np.random.default_rng(11)
    density, r_in, r_out = 4.0, 2.0, 5.0
    mean = density * math.pi * (r_out**2 - r_in**2)  # 263.89
    counts = []
    for _ in range(3000):
        r, phi = geometry.sample_ppp_annulus(density, r_in, r_out, rng)
        counts.append(r.size)
        assert r.size == phi.size
        if r.size:
            assert r.min() >= r_in and r.max() <= r_out
            assert phi.min() >= 0.0 and phi.max() < 2.0 * math.pi
    counts = np.asarray(counts, dtype=float)
    # Poisson: se of the sample mean is sqrt(mean/n)
    se = math.sqrt(mean / counts.size)
    assert abs(counts.mean() - mean) < 3.5 * se


def test_disk_radial_and_angular_law():
    # with ~1e5 points the empirical CDF should track the exact law to
    # well under 0.01 (KS 1% critical value is ~0.005 here)
    rng = np.random.default_rng(12)
    radius = 5.0
    density = 1e5 / (math.pi * radius**2)
    r, phi = geometry.sample_ppp_disk(density, radius, rng)
    assert r.size > 9e4
    grid = np.linspace(0.0, radius, 101)
    emp = np.searchsorted(np.sort(r), grid, side="right") / r.size
    exact = (grid / radius) ** 2
    assert np.max(np.abs(emp - exact)) < 0.01
    agrid = np.linspace(0.0, 2.0 * math.pi, 101)
    emp_a = np.searchsorted(np.sort(phi), agrid, side="right") / phi.size
    assert np.max(np.abs(emp_a - agrid / (2.0 * math.pi))) < 0.01


def test_density_zero_gives_empty_sample():
    rng = np.random.default_rng(0)
    r, phi = geometry.sample_ppp_disk(0.0, 5.0, rng)
    assert r.size == 0 and phi.size == 0
    r, phi, los = mcsim.sample_full_field(make_config(**{"lambda": 0.0}), rng)
    assert r.size == 0 and phi.size == 0 and los.size == 0


def test_blocking_area_values():
    # hand evaluation of r W + pi W^2 / 4 at W = 0.3
    assert abs(geometry.blocking_area(0.0, 0.3) - 0.07068583470577035) < 1e-15
    assert abs(geometry.blocking_area(0.5, 0.3) - 0.22068583470577036) < 1e-15
    assert abs(geometry.blocking_area(1.0, 0.3) - 0.3706858347057703) < 1e-15


def test_blockage_probability_values():
    # hand evaluation of 1 - exp(-lambda (r W + pi W^2/4))
    assert abs(geometry.blockage_probability(1.0, 3.0, 0.3) - 0.6711184107574915) < 1e-12
    # r = 0: only the end cap contributes
    want = -math.expm1(-3.0 * math.pi * 0.09 / 4.0)
    assert abs(geometry.blockage_probability(0.0, 3.0, 0.3) - want) < 1e-15
    # zero density never blocks
    assert geometry.blockage_probability(2.0, 0.0, 0.3) == 0.0
    # monotone in r, lambda, and W
    p = geometry.blockage_probability
    assert p(1.0, 3.0, 0.3) < p(2.0, 3.0, 0.3)
    assert p(1.0, 3.0, 0.3) < p(1.0, 4.0, 0.3)
    assert p(1.0, 3.0, 0.3) < p(1.0, 3.0, 0.4)
    # tiny-argument accuracy (expm1 path): lambda*area = 3.7e-9
    lam = 1e-8
    area = geometry.blocking_area(1.0, 0.3)
    assert abs(geometry.blockage_probability(1.0, lam, 0.3) - lam * area) < 1e-17


def test_blockage_probability_matches_frequency():
    # sample blockage PPPs around a fixed link of length r = 1 and compare
    # the hit frequency against the stadium-area formula (3.5 sigma)
    rng = np.random.default_rng(13)
    lam, W, r = 3.0, 0.3, 1.0
    n = 20000
    hits = 0
    for _ in range(n):
        d, psi = geometry.sample_ppp_disk(lam, r + W / 2.0, rng)
        hits += geometry.is_blocked(r, 0.0, d, psi, W)
    p = geometry.blockage_probability(r, lam, W)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) < 3.5 * se


def test_is_blocked_basic_cases():
    W = 0.3

    def blocked(r, phi, d, psi):
        return geometry.is_blocked(r, phi, np.atleast_1d(np.asarray(d, dtype=float)),
                                   np.atleast_1d(np.asarray(psi, dtype=float)), W)

    assert not blocked(2.0, 0.0, [], [])          # no blockers at all
    assert blocked(2.0, 0.0, 1.0, 0.0)            # dead on the midpoint
    assert blocked(2.0, 0.0, 2.1, 0.0)            # 0.10 beyond the far end
    assert not blocked(2.0, 0.0, 2.3, 0.0)        # 0.30 beyond: outside the cap
    assert blocked(2.0, 0.0, 0.1, math.pi)        # behind the receiver but within W/2
    assert not blocked(2.0, 0.0, 0.2, math.pi)
    # perpendicular offset just inside / outside W/2 at the link midpoint
    for y, want in ((0.1499, True), (0.1501, False)):
        d = math.hypot(1.0, y)
        psi = math.atan2(y, 1.0)
        assert blocked(2.0, 0.0, d, psi) is np.bool_(want) or blocked(2.0, 0.0, d, psi) == want


def test_is_blocked_rotation_invariance():
    rng = np.random.default_rng(14)
    W = 0.25
    for _ in range(200):
        r = rng.uniform(0.2, 5.0)
        d = rng.uniform(0.0, 6.0, size=8)
        psi = rng.uniform(0.0, 2.0 * math.pi, size=8)
        rot = rng.uniform(0.0, 2.0 * math.pi)
        base = geometry.is_blocked(r, 0.0, d, psi, W)
        turned = geometry.is_blocked(r, rot, d, np.mod(psi + rot, 2.0 * math.pi), W)
        assert base == turned


def test_blockage_set_monotonicity():
    # adding a blocker can only turn LOS links NLOS, never the reverse
    rng = np.random.default_rng(15)
    W = 0.3
    r = rng.uniform(0.2, 8.0, size=50)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=50)
    d = rng.uniform(0.0, 8.0, size=30)
    psi = rng.uniform(0.0, 2.0 * math.pi, size=30)
    los_all = geometry.classify_los(r, phi, d, psi, W)
    los_some = geometry.classify_los(r, phi, d[:10], psi[:10], W)
    assert not np.any(los_all & ~los_some)


def test_classify_los_matches_bruteforce():
    # the pruned sweep must agree with the naive per-link test exactly
    rng = np.random.default_rng(16)
    W = 0.3
    for trial in range(40):
        n = int(rng.integers(0, 60))
        nb = int(rng.integers(0, 80))
        r = rng.uniform(0.05, 10.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        d = rng.uniform(0.0, 10.5, size=nb)
        psi = rng.uniform(0.0, 2.0 * math.pi, size=nb)
        fast = geometry.classify_los(r, phi, d, psi, W)
        slow = np.array([not geometry.is_blocked(r[i], phi[i], d, psi, W)
                         for i in range(n)], dtype=bool)
        assert np.array_equal(fast, slow), f"mismatch on fuzz trial {trial}"


def test_classify_los_center_blocker():
    # a blocker overlapping the receiver blocks every link
    r = np.array([0.5, 3.0, 9.0])
    phi = np.array([0.0, 2.0, 4.0])
    los = geometry.classify_los(r, phi, np.array([0.1]), np.array([1.0]), 0.3)
    assert not np.any(los)


def test_sample_deployment_regions(monkeypatch):
    # the FULL-mode draw: interferers on the network disk, then blockage
    # centers on the disk of radius r_net + W/2, both through mcsim's names
    calls = []

    def recording_disk(density, radius, rng):
        r, phi = geometry.sample_ppp_disk(density, radius, rng)
        calls.append((radius, r, phi))
        return r, phi

    monkeypatch.setattr(mcsim, "sample_ppp_disk", recording_disk)
    rng = np.random.default_rng(17)
    W, r_net = 0.3, 10.0
    cfg = make_config(W=W, r_net=r_net)
    max_b = 0.0
    for _ in range(50):
        calls.clear()
        r, phi, los = mcsim.sample_full_field(cfg, rng)
        (r_i, drawn_i, _), (r_b, drawn_b, drawn_bphi) = calls
        assert (r_i, r_b) == (r_net, r_net + W / 2.0)
        assert drawn_i is r
        assert np.array_equal(los, geometry.classify_los(r, phi, drawn_b, drawn_bphi, W))
        if r.size:
            assert r.max() <= r_net
        if drawn_b.size:
            assert drawn_b.max() <= r_net + W / 2.0
            max_b = max(max_b, drawn_b.max())
    # the blockage margin beyond r_net is actually used
    assert max_b > r_net
