"""Adaptive Gauss-Legendre panel integration."""

import math

import numpy as np
import pytest
from scipy import integrate

from wearnet import quadrature
from wearnet.quadrature import (QuadratureNotConverged, adaptive_gauss_legendre,
                               integrate_batch)


def test_smooth_exponential():
    got = adaptive_gauss_legendre(np.exp, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)
    assert abs(got - (math.e - 1.0)) < 1e-12


def test_oscillatory_closed_form():
    got = adaptive_gauss_legendre(lambda x: np.cos(40.0 * x), 0.0, 1.0,
                                  abs_tol=1e-12, rel_tol=1e-12)
    assert abs(got - math.sin(40.0) / 40.0) < 1e-11


# the integrand family the coverage expressions actually use:
# r / (1 + c r^-alpha)^m, steep near the origin; (c, alpha, m) triples
PEAKED = ((5.0, 3.2, 1), (0.3, 3.2, 3), (40.0, 2.1, 8))


def test_peaked_kernel_matches_scipy():
    for c, alpha, m in PEAKED:
        f = lambda r: r / (1.0 + c * r**(-alpha)) ** m
        got = adaptive_gauss_legendre(f, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
        want, err = integrate.quad(f, 0.0, 10.0, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-12, (c, alpha, m)


def test_relative_tolerance_scales():
    f = lambda x: 1e8 * np.exp(x)
    got = adaptive_gauss_legendre(f, 0.0, 1.0, abs_tol=0.0, rel_tol=1e-10)
    want = 1e8 * (math.e - 1.0)
    assert abs(got - want) <= 1e-9 * want


def test_zero_width_interval():
    assert adaptive_gauss_legendre(np.exp, 2.0, 2.0) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        adaptive_gauss_legendre(np.exp, 1.0, 0.0)


def test_panel_budget_exhaustion(monkeypatch):
    # rapidly oscillating integrand with a tiny budget must refuse, not
    # silently return garbage, and must carry its best estimate
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    points = []

    def f(x):
        points.append(x.size)
        return np.sin(1.0 / x)

    with pytest.raises(QuadratureNotConverged) as err:
        adaptive_gauss_legendre(f, 1e-6, 1.0, abs_tol=1e-15, rel_tol=1e-15)
    assert math.isfinite(err.value.value)
    assert err.value.error_estimate > 0.0
    # the level that passes the budget of 8 panels is the last one run
    assert sum(points) <= 20 * (2 * 8 + 1)


def test_peaked_kernel_batch_matches_scipy():
    c, alpha, m = np.array(PEAKED).T

    def f(index, r):
        return r / (1.0 + c[index] * r ** (-alpha[index])) ** m[index]

    got = integrate_batch(f, len(PEAKED), 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    for k, (ck, ak, mk) in enumerate(PEAKED):
        want, err = integrate.quad(lambda r: r / (1.0 + ck * r**(-ak)) ** mk,
                                   0.0, 10.0, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert abs(got[k] - want) <= 1e-9 * abs(want) + 1e-12, PEAKED[k]


def test_batch_equals_single_integrals_bit_for_bit():
    # more integrands than one group, with very different panel counts
    cs = np.geomspace(1e-6, 1e4, 300)

    def f(index, r):
        return r / (1.0 + cs[index] * r ** -3.2) ** 4

    batch = integrate_batch(f, cs.size, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    alone = [adaptive_gauss_legendre(lambda r, c=c: r / (1.0 + c * r ** -3.2) ** 4,
                                     0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
             for c in cs]
    assert batch.tolist() == alone
    # the same integrands in reverse order give the same values
    rev = integrate_batch(lambda index, r: f(cs.size - 1 - index, r), cs.size,
                          0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    assert rev[::-1].tolist() == alone


def test_panel_budget_is_per_integrand(monkeypatch):
    # 300 easy integrands need 3 panels each, far more than 8 in total
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    easy = integrate_batch(lambda index, x: np.exp(x), 300, 0.0, 1.0)
    assert np.all(np.abs(easy - (math.e - 1.0)) < 1e-12)
    # one oscillating integrand among easy ones exhausts its own budget and
    # is named by its index
    with pytest.raises(QuadratureNotConverged) as err:
        integrate_batch(lambda index, x: np.where(index == 1, np.sin(1.0 / x), np.exp(x)),
                        3, 1e-6, 1.0, abs_tol=1e-12)
    assert err.value.index == 1
    assert math.isfinite(err.value.value)
    assert err.value.error_estimate > 0.0


def test_empty_batch_and_zero_width():
    assert integrate_batch(lambda index, x: x, 0, 0.0, 1.0).size == 0
    assert integrate_batch(lambda index, x: x, 4, 2.0, 2.0).tolist() == [0.0] * 4
