"""Mean LOS interferer count and equivalent LOS ball radius."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from wearnet import losball
from wearnet.model import ConfigError


def _mean_by_quadrature(lam, W, r_net):
    # independent route: integrate the LOS-retained intensity
    # 2 pi lam r exp(-lam (r W + pi W^2/4)) numerically
    f = lambda r: 2.0 * math.pi * lam * r * math.exp(-lam * (r * W + math.pi * W * W / 4.0))
    value, err = integrate.quad(f, 0.0, r_net, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return value


def test_mean_matches_quadrature():
    # closed form vs adaptive quadrature over a 60-point parameter grid,
    # including points on both sides of the small-argument series switch
    cases = [(lam, W, r_net)
             for lam in (0.05, 0.5, 1.0, 3.0, 7.0)
             for W in (0.05, 0.3, 0.6, 1.2)
             for r_net in (2.0, 10.0, 40.0)]
    cases += [(1.0, 0.000999, 1.0), (1.0, 0.001001, 1.0)]
    assert len(cases) >= 60
    for lam, W, r_net in cases:
        closed = losball.mean_los_interferers(lam, W, r_net)
        quad = _mean_by_quadrature(lam, W, r_net)
        assert abs(closed - quad) <= 1e-9 * quad, (lam, W, r_net, closed, quad)


def test_mean_anchor_values():
    # frozen from the quadrature route (epsabs 1e-14), W = 0.3, r_net = 10
    want = {1: 52.09439601361353, 2: 29.77890516202297, 3: 18.8011496978844,
            4: 13.153726429745577, 5: 9.805571010809578}
    for lam, value in want.items():
        got = losball.mean_los_interferers(float(lam), 0.3, 10.0)
        assert abs(got - value) < 1e-8 * value
    means = [losball.mean_los_interferers(float(lam), 0.3, 10.0) for lam in range(1, 6)]
    assert all(a > b for a, b in zip(means, means[1:]))  # denser bodies, fewer LOS


def test_vanishing_blocker_limit():
    # W -> 0 removes blockage: the mean tends to the full disk count lam pi r^2
    disk = 3.0 * math.pi * 100.0
    got = losball.mean_los_interferers(3.0, 1e-8, 10.0)
    assert abs(got - disk) < 1e-6 * disk


def test_density_zero():
    assert losball.mean_los_interferers(0.0, 0.3, 10.0) == 0.0
    assert losball.los_ball_radius(0.0, 0.3, 10.0) == 10.0
    assert losball.los_ball_radius_limit(0.0, 0.3) == math.inf


def test_vanishing_density():
    # lambda^2 and (lambda W r_net)^2 underflow here; the series form keeps
    # mean = lam pi r_net^2 (1 - O(x)) and R_LOS = r_net (1 - O(x))
    for lam in (1e-300, 1e-200, 1e-12):
        mean = losball.mean_los_interferers(lam, 0.3, 10.0)
        assert abs(mean - lam * math.pi * 100.0) <= 1e-10 * lam * math.pi * 100.0
        assert abs(losball.los_ball_radius(lam, 0.3, 10.0) - 10.0) <= 1e-10


def test_radius_at_overflowing_density_warns_nothing():
    # lambda^2 overflows above about 1.3e154; a numpy density used to warn
    # there.  The correctly rounded radius is 0.0, and a numpy density gives
    # the float's answer everywhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e155, 1e300, np.finfo(float).max):
            assert losball.los_ball_radius(np.float64(lam), 0.3, 3.0) == 0.0
            assert losball.los_ball_radius(lam, 0.3, 3.0) == 0.0
        for lam in (0.0, 1e-300, 1e-4, 3.0, 1e3):
            assert (losball.los_ball_radius(np.float64(lam), 0.3, 3.0)
                    == losball.los_ball_radius(lam, 0.3, 3.0))


def test_radius_definition_and_bounds():
    # R_LOS packs the mean count at full density into a ball: mean = lam pi R^2
    for lam in (0.5, 1.0, 3.0, 5.0):
        mean = losball.mean_los_interferers(lam, 0.3, 10.0)
        r = losball.los_ball_radius(lam, 0.3, 10.0)
        assert abs(lam * math.pi * r * r - mean) < 1e-10 * mean
        assert 0.0 < r <= 10.0
    radii = [losball.los_ball_radius(lam, 0.3, 10.0) for lam in (0.5, 1.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_radius_anchor():
    # frozen from the quadrature mean at lam = 3: sqrt(mean / (3 pi))
    got = losball.los_ball_radius(3.0, 0.3, 10.0)
    assert abs(got - 1.4123965236974583) < 1e-9


def test_radius_flattens_with_network_size():
    # at lam = 3 the retained intensity is negligible beyond a few meters,
    # so growing the disk past 10 m moves R_LOS by < 0.1% relative
    r10 = losball.los_ball_radius(3.0, 0.3, 10.0)
    r20 = losball.los_ball_radius(3.0, 0.3, 20.0)
    assert 0.0 < (r20 - r10) / r20 < 1e-3


def test_radius_limit_consistency():
    # hand evaluation of sqrt(2)/(lam W) exp(-lam pi W^2/8) at lam = 3, W = 0.3
    limit = losball.los_ball_radius_limit(3.0, 0.3)
    assert abs(limit - 1.4132688490732332) < 1e-12
    # the finite-network radius converges to it as r_net grows
    r_big = losball.los_ball_radius(3.0, 0.3, 1000.0)
    assert abs(r_big - limit) <= 1e-6 * limit
    for lam in (1.0, 3.0):
        r_big = losball.los_ball_radius(lam, 0.3, 1000.0)
        assert abs(r_big - losball.los_ball_radius_limit(lam, 0.3)) <= 1e-6 * limit


@pytest.mark.parametrize("density, W, r_net, violation", [
    (math.nan, 0.3, 10.0, "ValueNotFinite"),
    (math.inf, 0.3, 10.0, "ValueNotFinite"),
    (3.0, math.nan, 10.0, "ValueNotFinite"),
    (3.0, 0.3, math.inf, "ValueNotFinite"),
    (True, 0.3, 10.0, "ValueNotReal"),
    ("3", 0.3, 10.0, "ValueNotReal"),
    (-3.0, 0.3, 10.0, "DensityNegative"),
    (3.0, 0.0, 10.0, "BlockageDiameterNotPositive"),
    (3.0, -0.3, 10.0, "BlockageDiameterNotPositive"),
    (3.0, 0.3, -1.0, "NetRadiusTooSmall"),
], ids=["density-nan", "density-inf", "W-nan", "r_net-inf", "bool", "str",
        "density-negative", "W-zero", "W-negative", "r_net-negative"])
def test_bad_argument_is_named_refusal(density, W, r_net, violation):
    # each used to give a silent NaN (or an unnamed ValueError about
    # lambda W r_net); the limit takes no r_net
    for f in (losball.mean_los_interferers, losball.los_ball_radius):
        with pytest.raises(ConfigError) as err:
            f(density, W, r_net)
        assert err.value.violation == violation
    if r_net == 10.0:
        with pytest.raises(ConfigError) as err:
            losball.los_ball_radius_limit(density, W)
        assert err.value.violation == violation


def test_overflowing_product_gives_limit_not_nan():
    # lambda W r_net overflows to +inf, where f(x) is its limit 1, not
    # inf * exp(-inf) = NaN: no interferer is LOS and the ball is a point
    for lam in (1e308, np.finfo(float).max):
        assert losball.mean_los_interferers(lam, 0.3, 10.0) == 0.0
        assert losball.los_ball_radius(lam, 0.3, 10.0) == 0.0
