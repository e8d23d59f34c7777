"""Adaptive Gauss-Legendre panel integration."""

import math

import numpy as np
import pytest
from scipy import integrate

import oracles
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


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.nan, 1.0), (0.0, math.nan)],
                         ids=["b-inf", "a-minus-inf", "a-nan", "b-nan"])
def test_non_finite_bounds_refused_before_any_call(a, b):
    # such a bound used to run the whole panel budget on NaN nodes, then
    # raise QuadratureNotConverged with a NaN error (a NaN bound as "out of
    # order")
    def not_called(*args):
        raise AssertionError("the integrand was called")

    with pytest.raises(ValueError, match="must be finite"):
        integrate_batch(not_called, 2, a, b)
    with pytest.raises(ValueError, match="must be finite"):
        adaptive_gauss_legendre(not_called, a, b)


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

    def f(index, nodes, col):
        r = nodes[:, col]
        return r / (1.0 + c[index] * r ** (-alpha[index])) ** m[index]

    got = integrate_batch(f, len(PEAKED), 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    for k, (ck, ak, mk) in enumerate(PEAKED):
        want, err = integrate.quad(lambda r: r / (1.0 + ck * r**(-ak)) ** mk,
                                   0.0, 10.0, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert abs(got[k] - want) <= 1e-9 * abs(want) + 1e-12, PEAKED[k]


def _kernel(r, c):
    # the radial kernel of laplace_term, (1 + c r^-alpha)^-m r, at
    # alpha = 3.2 and m = 4, for one integrand
    return (1.0 + r ** -3.2 * c) ** -4 * r


def _shared_kernel(cs):
    # _kernel for the integrands cs as laplace_term builds it: the power of
    # r once per panel of the table, then gathered to each integrand's
    # columns and finished in place
    def f(index, nodes, col):
        v = np.take(nodes ** -3.2, col, axis=1)
        v *= cs[index]
        v += 1.0
        v **= -4
        v *= np.take(nodes, col, axis=1)
        return v
    return f


def test_batch_equals_single_integrals_bit_for_bit(monkeypatch):
    # more integrands than one group, with very different panel counts
    monkeypatch.setattr(quadrature, "_GROUP", 256)
    cs = np.geomspace(1e-6, 1e4, 300)
    f = _shared_kernel(cs)
    batch = integrate_batch(f, cs.size, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    alone = [adaptive_gauss_legendre(lambda r, c=c: _kernel(r, c),
                                     0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
             for c in cs]
    assert batch.tolist() == alone
    # the same integrands in reverse order give the same values
    rev = integrate_batch(lambda index, nodes, col: f(cs.size - 1 - index, nodes, col),
                          cs.size, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    assert rev[::-1].tolist() == alone


def test_panel_budget_is_per_integrand(monkeypatch):
    # 300 easy integrands need 3 panels each, far more than 8 in total
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    easy = integrate_batch(lambda index, nodes, col: np.exp(nodes[:, col]), 300, 0.0, 1.0)
    assert np.all(np.abs(easy - (math.e - 1.0)) < 1e-12)
    # one oscillating integrand among easy ones exhausts its own budget and
    # is named by its index
    with pytest.raises(QuadratureNotConverged) as err:
        integrate_batch(lambda index, nodes, col: np.where(
            index == 1, np.sin(1.0 / nodes[:, col]), np.exp(nodes[:, col])),
                        3, 1e-6, 1.0, abs_tol=1e-12)
    assert err.value.index == 1
    assert math.isfinite(err.value.value)
    assert err.value.error_estimate > 0.0


def test_empty_batch_and_zero_width():
    assert integrate_batch(lambda index, nodes, col: nodes[:, col], 0, 0.0, 1.0).size == 0
    assert integrate_batch(lambda index, nodes, col: nodes[:, col], 4,
                           2.0, 2.0).tolist() == [0.0] * 4


def _recorded(f):
    # f, and the number of panels of each of its calls: one node sum each
    columns = []

    def recorded(index, nodes, col):
        assert index.shape == col.shape and nodes.shape[0] == 20
        assert 0 <= col.min() and col.max() < nodes.shape[1]
        columns.append(col.size)
        return f(index, nodes, col)
    return recorded, columns


def test_panel_node_sum_matches_node_by_node_rule(monkeypatch):
    # numpy sums a single (20, 1) column pairwise, not node by node; the
    # rule never hands its integrand fewer than 2 panels, so every batch
    # size, including a last group of one (257 = 256 + 1), gives the bits
    # of a node-by-node panel sum
    monkeypatch.setattr(quadrature, "_GROUP", 256)
    cs = np.geomspace(1e-6, 1e4, 257)
    f, columns = _recorded(_shared_kernel(cs))
    want = [oracles.gauss_legendre(lambda r, c=c: _kernel(r, c),
                                   0.0, 10.0, 1e-12, 1e-10) for c in cs]
    for n in (1, 2, 257):
        got = integrate_batch(f, n, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
        assert got.tolist() == want[:n], n
    for c, value in zip(cs[::32], want[::32]):
        got = adaptive_gauss_legendre(lambda r: _kernel(r, c),
                                      0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
        assert got == value
    assert min(columns) >= 2


@pytest.mark.parametrize("group", (2, 3, 1024))
@pytest.mark.parametrize("chunk", (2, 3, 800, 1024))
def test_batch_bits_do_not_depend_on_grouping_or_chunking(monkeypatch, group, chunk):
    # the panel table shares nodes and r^-alpha between integrands; the
    # values must still be each integrand's panel-by-panel rule, whatever
    # the group and chunk sizes and the order of the integrands
    monkeypatch.setattr(quadrature, "_GROUP", group)
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    cs = np.concatenate((np.geomspace(1e-6, 1e4, 9), [5.0, 5.0]))
    want = [oracles.gauss_legendre(lambda r, c=c: _kernel(r, c),
                                   0.0, 10.0, 1e-12, 1e-10) for c in cs]
    f, columns = _recorded(_shared_kernel(cs))
    got = integrate_batch(f, cs.size, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    assert got.tolist() == want
    rev = integrate_batch(lambda index, nodes, col: f(cs.size - 1 - index, nodes, col),
                          cs.size, 0.0, 10.0, abs_tol=1e-12, rel_tol=1e-10)
    assert rev[::-1].tolist() == want
    assert min(columns) >= 2
    assert max(columns) <= max(chunk + 1, 3)
