"""Planar geometry of body blockage and Poisson deployments.

The receiver sits at the origin.  Every user carries a blocking disk of
diameter W (meters) centered on their body; a link from a transmitter at
distance r is blocked when some blocking disk intersects the segment from
the origin to the transmitter, i.e. when a disk center falls within W/2 of
that segment.  The set of such centers is a stadium of area

    |A'(r)| = r W + pi W^2 / 4,

so with blockage centers forming a PPP of density lambda the link is
line of sight with probability exp(-lambda |A'(r)|).

sample_ppp_disk draws a deployment, a PPP on a disk around the receiver:
its Poisson count, then its uniforms as one 2 x n block, whose values are
those of two successive draws of n (numpy fills a block in C order).  The
transform of those uniforms to polar coordinates, disk_polar, draws
nothing, so a caller may draw many blocks and transform them in one call.
classify_los decides which of a deployment's links the bodies block.
"""

from __future__ import annotations

import math

import numpy as np


def disk_polar(radius, x):
    """Polar coordinates (r, phi) of uniform points on the disk of given
    radius centered at the origin, from uniforms x of shape (2, n) or more
    rows: r = sqrt(radius^2 x[0]) follows the pdf 2r/radius^2 and
    phi = 2 pi x[1] is uniform on [0, 2*pi).  Elementwise, so one call on
    the blocks of many deployments side by side gives each deployment's
    values bit for bit."""
    return np.sqrt(radius * radius * x[0]), x[1] * (2.0 * math.pi)


def sample_ppp_disk(density, radius, rng):
    """Sample a homogeneous PPP on a disk of given radius centered at the origin.

    Returns (r, phi): polar coordinates of the points, each shape (n,) with
    n ~ Poisson(density * pi * radius^2), from one block of 2 x n uniforms
    (see disk_polar).  Zero density yields an empty sample; a radius that
    is not > 0 raises ValueError.
    """
    if not radius > 0.0:
        raise ValueError(f"need radius > 0, got {radius}")
    n = rng.poisson(density * (math.pi * (radius * radius))) if density > 0.0 else 0
    return disk_polar(radius, rng.random((2, n)))


def blocking_area(r, W):
    """Area |A'(r)| of the stadium of blockage-center positions that block a
    link of length r: a W/2-neighborhood of the segment, r*W + pi*W^2/4."""
    r = np.asarray(r, dtype=float)
    out = r * W + math.pi * W * W / 4.0
    return float(out) if out.ndim == 0 else out

def blockage_probability(r, density, W):
    """Probability that a link of length r is blocked, 1 - exp(-lambda |A'(r)|).

    Vectorized over r.  Zero density gives probability 0 for every r.
    """
    r = np.asarray(r, dtype=float)
    out = -np.expm1(-density * blocking_area(r, W))
    return float(out) if out.ndim == 0 else out


def classify_los(r, phi, d, psi, W):
    """LOS mask for many links against many blockage centers.

    Links run from the origin to the polar points (r[i], phi[i]); blockage
    centers sit at (d[j], psi[j]) with blocking diameter W; angles lie in
    [0, 2*pi).  Returns a bool array, True where no center lies within W/2
    of the link segment (contact counts as blocked).  Centers with
    d <= W/2 cover the origin and block every link.

    A center at d > W/2 can only reach the segment toward angle phi when
    |psi - phi| <= arcsin(W / (2 d)) modulo 2*pi, so a sorted-angle window
    search finds the candidate pairs and only those get the exact
    segment-distance test.  Centers are swept nearest first, in distance
    bands whose edges double from 2 / (lambda W), with lambda =
    len(d) / (pi max(d)^2) the density the sample shows; a band's centers
    block most links beyond them.  Each band is searched only against
    links still LOS with r >= band_lo - W/2: a center at d > band_lo lies
    at least d - r > W/2 from a shorter link and cannot block it.  Every
    pair still tested gets the same arithmetic on the same values, so the
    bands change the cost, never the mask.
    """
    r, phi, d, psi = (np.asarray(v, dtype=float) for v in (r, phi, d, psi))
    los = np.ones(r.size, dtype=bool)
    if r.size == 0 or d.size == 0:
        return los
    half_w = 0.5 * W
    if np.any(d <= half_w):
        los[:] = False
        return los

    px = r * np.cos(phi)
    py = r * np.sin(phi)
    seg_sq = px * px + py * py
    cx = d * np.cos(psi)
    cy = d * np.sin(psi)
    # Widen the window by a few ulps so the exact test below, not angle
    # rounding, decides grazing contacts.
    half_window = np.arcsin(np.minimum(1.0, half_w / d)) + 1e-12
    win_lo = np.mod(psi - half_window, 2.0 * math.pi)
    win_hi = win_lo + 2.0 * half_window

    d_max = d.max()
    # one band when d_max^2 underflows, so the doubling always reaches d_max
    band_lo, edge = 0.0, 2.0 * math.pi * d_max * d_max / (d.size * W) or d_max
    while band_lo < d_max and los.any():
        band = np.flatnonzero((d > band_lo) & (d <= edge))
        # the 1e-9 m of slack leaves limit cases to the exact pair test
        live = np.flatnonzero(los & (r >= band_lo - half_w - 1e-9))
        if band.size and live.size:
            _block_band(los, live, phi, px, py, seg_sq, cx[band], cy[band],
                        win_lo[band], win_hi[band], half_w)
        band_lo, edge = edge, 2.0 * edge
    return los


def _block_band(los, live, phi, px, py, seg_sq, cx, cy, win_lo, win_hi, half_w):
    """Clear los[i] for each link i in ``live`` blocked by a center (cx, cy)
    whose angular window [win_lo, win_hi] holds phi[i]."""
    order = live[np.argsort(phi[live])]
    phi_sorted = phi[order]
    # Duplicating the sorted angles shifted by 2*pi turns the circular window
    # search into a plain interval search: a window [lo, hi] with lo in
    # [0, 2*pi] and hi - lo < pi lands entirely inside the duplicated array.
    ext = np.concatenate((phi_sorted, phi_sorted + 2.0 * math.pi))
    start = np.searchsorted(ext, win_lo, side="left")
    counts = np.searchsorted(ext, win_hi, side="right") - start
    total = int(counts.sum())
    if total == 0:
        return
    body_idx = np.repeat(np.arange(cx.size), counts)
    offsets = np.cumsum(counts) - counts
    link_idx = order[(np.arange(total) + np.repeat(start - offsets, counts)) % order.size]

    # squared distance from each center to its link segment [0, (px, py)];
    # a zero-length link degenerates to the origin
    lpx, lpy, lseg = px[link_idx], py[link_idx], seg_sq[link_idx]
    bcx, bcy = cx[body_idx], cy[body_idx]
    dot = bcx * lpx + bcy * lpy
    t = np.where(lseg > 0.0, dot / np.where(lseg > 0.0, lseg, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dx = bcx - t * lpx
    dy = bcy - t * lpy
    hit = dx * dx + dy * dy <= half_w * half_w
    los[link_idx[hit]] = False
