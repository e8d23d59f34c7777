"""Adaptive Gauss-Legendre quadrature on finite intervals.

The coverage expressions need one-dimensional integrals of smooth but
sharply peaked integrands (powers of 1/(1 + c r^-alpha) near r = 0).  A
20-point Gauss-Legendre rule per panel with bisection on an error
estimate handles these reliably; the error estimate for a panel is the
difference between the one-panel value and the sum over its two halves.

The rule is batch-native: ``integrate_batch`` integrates many integrands
over a common interval and evaluates every pending panel of every
integrand in one vectorized call per bisection level.  A panel's fate
depends only on the panel itself, never on the order panels are visited
in or on the other integrands of the batch, and the accepted panels are
summed with the exactly rounded ``math.fsum``, so a batch gives bit for
bit the values each integrand would give alone.
"""

from __future__ import annotations

import math

import numpy as np


class QuadratureNotConverged(ArithmeticError):
    """The panel budget ran out before the error estimate met tolerance.

    ``index`` is the position of the failing integrand in its batch (0 for
    a single integral).
    """

    def __init__(self, message, value, error_estimate, index=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.index = index


# The 20-point rule on every panel, and the panel budget per integrand.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = 4096

# Integrands advanced together; bounds the working set of a large batch
# (pending panels x nodes per level) to a few MB.
_GROUP = 256


def _panels(f, owner, lo, hi):
    """One-panel rule values on [lo[k], hi[k]] for integrand owner[k].

    The weighted node sum runs node by node over contiguous rows, so each
    panel's value is the same whatever else is in the batch.
    """
    half = 0.5 * (hi - lo)
    values = f(owner, 0.5 * (lo + hi) + half * _NODES[:, None])
    total = _WEIGHTS[0] * values[0]
    for w, row in zip(_WEIGHTS[1:], values[1:]):
        total += w * row
    return half * total


def integrate_batch(f, n, a, b, abs_tol=1e-10, rel_tol=1e-8):
    """Integrate ``n`` integrands over the common interval [a, b].

    ``f(index, x)`` receives an int array ``index`` of shape (P,) and a float
    array ``x`` of shape (20, P); column k holds sample points of
    integrand ``index[k]``, and ``f`` returns their values in that shape.

    Each integrand is bisected on its own: a panel whose error estimate
    exceeds

        max(abs_tol, rel_tol * |whole-interval estimate|) * panel_len / (b - a)

    is split, unless it is narrower than 16 ulps of its midpoint.  An
    integrand that has spent more than _MAX_PANELS (4096) panel evaluations
    and still has a failing panel raises QuadratureNotConverged, carrying
    its best value, its error estimate and its index.  Returns a float array
    of the ``n`` integrals.
    """
    if not (b >= a):
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    out = np.zeros(n)
    if a == b:
        return out
    for start in range(0, n, _GROUP):
        stop = min(n, start + _GROUP)
        out[start:stop] = _integrate_group(
            f, np.arange(start, stop), a, b, abs_tol, rel_tol)
    return out


def _integrate_group(f, index, a, b, abs_tol, rel_tol):
    k = index.size
    own = np.arange(k)
    lo = np.full(k, float(a))
    hi = np.full(k, float(b))
    whole = _panels(f, index, lo, hi)
    tol_density = np.maximum(abs_tol, rel_tol * np.abs(whole)) / (b - a)
    used = np.ones(k, dtype=np.int64)
    done_owner, done_value = [], []     # converged panels, by level
    while own.size:
        mid = 0.5 * (lo + hi)
        halves = _panels(f, index[np.concatenate((own, own))],
                         np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:own.size], halves[own.size:]
        used += 2 * np.bincount(own, minlength=k)
        refined = left + right
        err = np.abs(refined - whole)
        width = hi - lo
        ok = ((err <= tol_density[own] * width)
              | (width <= 16.0 * np.spacing(np.abs(mid))))
        done_owner.append(own[ok])
        done_value.append(refined[ok])
        split = ~ok
        over = split & (used[own] > _MAX_PANELS)
        if np.count_nonzero(over):
            j = int(own[over][0])
            mine = own == j
            value = (math.fsum(np.concatenate(done_value)[np.concatenate(done_owner) == j])
                     + math.fsum(refined[mine & split]))
            worst = float(err[mine & split].max())
            raise QuadratureNotConverged(
                f"integrand {int(index[j])}: no convergence after {int(used[j])} "
                f"panels on [{a}, {b}]; worst panel error {worst:.3e}",
                value, worst, int(index[j]))
        own = np.concatenate((own[split], own[split]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    parts = [[] for _ in range(k)]
    for j, value in zip(np.concatenate(done_owner).tolist(),
                        np.concatenate(done_value).tolist()):
        parts[j].append(value)
    return np.array([math.fsum(p) for p in parts])


def adaptive_gauss_legendre(f, a, b, abs_tol=1e-10, rel_tol=1e-8):
    """Integrate the vectorized callable ``f`` over [a, b].

    ``f`` receives a float ndarray of sample points and must return values
    of the same shape.  This is ``integrate_batch`` with one integrand; see
    there for the tolerance and the panel budget.
    """
    return float(integrate_batch(lambda index, x: f(x), 1, a, b, abs_tol, rel_tol)[0])
