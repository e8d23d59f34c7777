"""Adaptive Gauss-Legendre quadrature on finite intervals.

The coverage expressions need one-dimensional integrals of smooth but
sharply peaked integrands (powers of 1/(1 + c r^-alpha) near r = 0).  A
20-point Gauss-Legendre rule per panel with bisection on an error
estimate handles these reliably; the error estimate for a panel is the
difference between the one-panel value and the sum over its two halves.

The rule is batch-native: ``integrate_batch`` integrates many integrands
over a common interval and evaluates every pending panel of every
integrand together, one bisection level at a time; the first level holds
each integrand's whole interval and its two halves.  All integrands bisect
the same dyadic tree of [a, b], so the panels at one tree position have
the same ends for every integrand pending there.  A level keeps one table
of its distinct panels (their ends and midpoints, built from the rows that
were split), and each pending panel keeps its integrand and its row in
that table.  A panel's nodes are built once per row, and the integrand is
handed the rows' nodes and each panel's row, so that work which depends on
the nodes alone, such as a power of r, is done once per row as well.

A level is evaluated in chunks of about _CHUNK panels, which bounds the
(20, panels) blocks whatever the batch size.  The node sum of a chunk is
one axis-0 reduction of a C-ordered (20, panels) block, which numpy adds
row by row only when there are at least two columns (a lone column it sums
pairwise); every chunk has at least two.  A panel's ends, nodes, products
and node sum are computed as they would be for the panel alone, whoever
shares its row or its chunk, so a panel's value, and its fate, depend only
on the panel itself, never on the order panels are visited in, on the
other integrands of the batch or on how the batch is grouped and chunked.
Each integrand's accepted panels are summed exactly rounded, as
``math.fsum`` sums them, so a batch gives bit for bit the values each
integrand would give alone.  A group's sums are formed together in long
double, and each one is kept where its error bound shows it is the
correctly rounded one; the few others go through ``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np


class QuadratureNotConverged(ArithmeticError):
    """The panel budget ran out before the error estimate met tolerance.

    ``index`` is the position of the failing integrand in its batch (0 for
    a single integral).  Every constructor argument stays in ``args``, so
    the error pickles; ``str`` is the message alone.
    """

    def __init__(self, message, value, error_estimate, index=0):
        super().__init__(message, value, error_estimate, index)
        self.value = value
        self.error_estimate = error_estimate
        self.index = index

    def __str__(self):
        return self.args[0]


# The 20-point rule on every panel, and the panel budget per integrand.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = 4096

# Integrands advanced together, and the panels evaluated in one integrand
# call (at least 2).  A level's (20, _CHUNK + 1) float64 blocks stay below
# 128 KiB, glibc's default mmap threshold, so they come from the heap, not
# from fresh mappings that each call faults in page by page.
_GROUP = 1024
_CHUNK = 800

# The closing sums (_fsum_segments) are certified in long double where it
# is IEEE extended (x86) or quad precision, in blocks of at most _SUM_BLOCK
# values: 64 KiB as long double.
_LONG_DOUBLE = np.finfo(np.longdouble).nmant in (63, 112)
_LONG_EPS = float(np.finfo(np.longdouble).eps)
_SUM_BLOCK = 4096


def _panels(f, index, col, lo, hi):
    """One-panel rule values of the panels k, integrand index[k] on the
    table row col[k], which is [lo[col[k]], hi[col[k]]].

    ``col`` does not decrease, so a chunk of panels covers a run of rows,
    whose nodes are built once and handed to ``f`` with the chunk's rows
    counted from the run's first.  The weighted node sum is one axis-0
    reduction of the C-ordered (20, chunk) products.  numpy adds the rows
    of such a block one after the other, as a node-by-node loop would, but
    only for two columns or more: a single column is one contiguous run
    that it sums pairwise, in another order.  The callers never pass fewer
    than two panels, and a lone last panel joins the chunk before it, so
    each panel's value is the same whatever else is in the batch.
    """
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    value = np.empty(col.size)
    cuts = list(range(0, col.size, _CHUNK))
    if col.size - cuts[-1] < 2:
        cuts.pop()
    for start, stop in zip(cuts, cuts[1:] + [col.size]):
        rows = col[start:stop]
        first, last = int(rows[0]), int(rows[-1]) + 1
        nodes = center[first:last] + half[first:last] * _NODES[:, None]
        values = f(index[start:stop], nodes, rows - first)
        value[start:stop] = half[rows] * np.add.reduce(
            np.multiply(values, _WEIGHTS[:, None], order="C"), axis=0)
    return value


def integrate_batch(f, n, a, b, abs_tol=1e-10, rel_tol=1e-8):
    """Integrate ``n`` integrands over the common interval [a, b].

    ``f(index, nodes, col)`` receives a float array ``nodes`` of shape
    (20, R), the sample points of R distinct panels, one panel per column,
    and int arrays ``index`` and ``col`` of shape (P,): column k of the
    result holds integrand ``index[k]`` at ``nodes[:, col[k]]``, and ``f``
    returns those values as a (20, P) array.  A panel's nodes are the same
    for every integrand, so ``f`` may compute what depends on the nodes
    alone once per column of ``nodes`` and gather it by ``col``; each of
    the P columns must hold the values its integrand gives at those nodes
    alone.  P is at least 2, and at most _CHUNK + 1 (801) panels of one
    bisection level.

    Each integrand is bisected on its own: a panel whose error estimate
    exceeds

        max(abs_tol, rel_tol * |whole-interval estimate|) * panel_len / (b - a)

    is split, unless it is narrower than 16 ulps of its midpoint.  An
    integrand that has spent more than _MAX_PANELS (4096) panel evaluations
    and still has a failing panel raises QuadratureNotConverged, carrying
    its best value, its error estimate and its index.  Returns a float array
    of the ``n`` integrals, each the correctly rounded sum of its accepted
    panels (``math.fsum``'s), so bit for bit the value it has alone.

    ValueError, before ``f`` is called, for a bound that is not finite (an
    infinity or a NaN) and for b < a.
    """
    for name, end in (("a", a), ("b", b)):
        if not math.isfinite(end):
            raise ValueError(f"integration bound {name} must be finite, got {end}")
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
    # the pending panels' table, one row per distinct panel, and each
    # pending panel's row; rows never decrease along the pending panels
    lo, hi = np.array([float(a)]), np.array([float(b)])
    mid = 0.5 * (lo + hi)
    row = np.zeros(k, dtype=np.intp)
    # the whole interval and its two halves: 3 rows, 3k >= 3 panels
    first = _panels(f, np.concatenate((index, index, index)), np.repeat(np.arange(3), k),
                    np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi)))
    whole, halves = first[:k], first[k:]
    tol_density = np.maximum(abs_tol, rel_tol * np.abs(whole)) / (b - a)
    used = np.full(k, 3, dtype=np.int64)
    done_owner, done_value = [], []     # converged panels, by level
    while True:
        left, right = halves[:own.size], halves[own.size:]
        refined = left + right
        err = np.abs(refined - whole)
        width = hi - lo
        narrow = width <= 16.0 * np.spacing(np.abs(mid))
        ok = (err <= tol_density[own] * width[row]) | narrow[row]
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
        parent = row[split]
        if not parent.size:
            break
        # the split rows, each once and in order, and each split panel's
        # rank among them; their left halves are the next table's first
        # rows, their right halves its last
        new = np.empty(parent.size, dtype=bool)
        new[0] = True
        np.not_equal(parent[1:], parent[:-1], out=new[1:])
        kept = parent[new]
        rank = np.cumsum(new) - 1
        row = np.concatenate((rank, rank + kept.size))
        own = np.concatenate((own[split], own[split]))
        lo, hi = np.concatenate((lo[kept], mid[kept])), np.concatenate((mid[kept], hi[kept]))
        whole = np.concatenate((left[split], right[split]))
        mid = 0.5 * (lo + hi)
        # each pending panel's two halves, 2 * pending >= 2 panels, on the
        # table of the pending rows' left halves, then their right halves
        halves = _panels(f, index[np.concatenate((own, own))],
                         np.concatenate((row, row + lo.size)),
                         np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        used += 2 * np.bincount(own, minlength=k)
    # each integrand's converged panels side by side, then one exact sum each
    owner = np.concatenate(done_owner)
    values = np.concatenate(done_value)[np.argsort(owner, kind="stable")]
    return _fsum_segments(values, np.bincount(owner, minlength=k))


def _fsum_segments(values, counts):
    """math.fsum of each segment of ``values``, the runs of counts[i] >= 1
    consecutive values, as a float array.

    In whatever order a segment's count values are added in long double,
    their sum S is within (count - 1) u |v|_1 of the exact sum, u = eps / 2
    the long double unit roundoff.  B = count eps |v|_1 also covers the
    float |v|_1's own error and the rounding of S - B and S + B, so when
    those two round to one double, every point between them does, the
    exact sum included: that double is the correctly rounded sum, the one
    math.fsum returns.  It is taken only where it is nonzero and
    |v|_1 < 2^1020, which keeps it finite and leaves fsum no intermediate
    overflow.  Every other segment (a rounding boundary near S, a zero sum,
    which fsum signs its own way, an inf or NaN, a huge |v|_1), and every
    segment where long double is neither IEEE extended nor quad precision,
    goes through math.fsum itself, exceptions included.  Summed in blocks
    of whole segments of at most _SUM_BLOCK values (a longer segment
    alone), so that a block's long double copy stays under 128 KiB.
    """
    out = np.empty(counts.size)
    ends = np.cumsum(counts)
    starts = ends - counts
    first = 0
    while first < counts.size:
        last = max(first + 1, int(np.searchsorted(ends, starts[first] + _SUM_BLOCK, "right")))
        block = values[starts[first]:ends[last - 1]]
        cuts = starts[first:last] - starts[first]
        redo = range(last - first)
        if _LONG_DOUBLE:
            with np.errstate(over="ignore", invalid="ignore"):
                total = np.add.reduceat(block.astype(np.longdouble), cuts)
                norm = np.add.reduceat(np.abs(block), cuts)
                bound = norm.astype(np.longdouble) * (_LONG_EPS * counts[first:last])
                below = (total - bound).astype(float)
                ok = ((below == (total + bound).astype(float)) & (below != 0.0)
                      & (norm < 2.0 ** 1020))
            out[first:last] = below
            redo = np.flatnonzero(~ok).tolist()
        for j in redo:
            out[first + j] = math.fsum(block[cuts[j]:cuts[j] + counts[first + j]].tolist())
        first = last
    return out


def adaptive_gauss_legendre(f, a, b, abs_tol=1e-10, rel_tol=1e-8):
    """Integrate the vectorized callable ``f`` over [a, b].

    ``f`` receives a float ndarray of sample points and must return values
    of the same shape.  This is ``integrate_batch`` with one integrand; see
    there for the tolerance and the panel budget.
    """
    return float(integrate_batch(lambda index, nodes, col: f(nodes)[:, col],
                                 1, a, b, abs_tol, rel_tol)[0])
