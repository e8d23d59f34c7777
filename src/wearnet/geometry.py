"""Planar geometry of body blockage and Poisson deployments.

The receiver sits at the origin.  Every user carries a blocking disk of
diameter W (meters) centered on their body; a link from a transmitter at
distance r is blocked when some blocking disk intersects the segment from
the origin to the transmitter, i.e. when a disk center falls within W/2 of
that segment.  The set of such centers is a stadium of area

    |A'(r)| = r W + pi W^2 / 4,

so with blockage centers forming a PPP of density lambda the link is
line of sight with probability exp(-lambda |A'(r)|).
"""

from __future__ import annotations

import math

import numpy as np


def sample_ppp_disk(density, radius, rng):
    """Sample a homogeneous PPP on a disk of given radius centered at the origin.

    Returns (r, phi): polar coordinates of the points, each shape (n,) with
    n ~ Poisson(density * pi * radius^2).  Radii follow the pdf 2r/radius^2,
    angles are uniform on [0, 2*pi).
    """
    return sample_ppp_annulus(density, 0.0, radius, rng)


def sample_ppp_annulus(density, r_in, r_out, rng):
    """Sample a homogeneous PPP on the annulus r_in <= r <= r_out.

    Radii follow the pdf 2r/(r_out^2 - r_in^2); angles are uniform; the
    count is Poisson(density * pi * (r_out^2 - r_in^2)).  Zero density
    yields an empty sample.
    """
    if not (0.0 <= r_in < r_out):
        raise ValueError(f"need 0 <= r_in < r_out, got [{r_in}, {r_out}]")
    area = math.pi * (r_out * r_out - r_in * r_in)
    n = rng.poisson(density * area) if density > 0.0 else 0
    r = np.sqrt(r_in * r_in + (r_out * r_out - r_in * r_in) * rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    return r, phi


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


def _segment_dist_sq(px, py, cx, cy):
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
    dist_sq = _segment_dist_sq(px, py, d * np.cos(psi), d * np.sin(psi))
    return bool(np.any(dist_sq <= 0.25 * W * W))


def classify_los(r, phi, d, psi, W):
    """LOS mask for many links against many blockage centers.

    Links run from the origin to the polar points (r[i], phi[i]); blockage
    centers sit at (d[j], psi[j]) with blocking diameter W.  Returns a bool
    array, True where the link is unobstructed.

    A center at distance d > W/2 can only reach the segment toward angle
    phi when |psi - phi| <= arcsin(W / (2 d)) modulo 2*pi, so candidate
    pairs are found by a sorted-angle window search and only those pairs
    get the exact segment-distance test.  Centers with d <= W/2 cover the
    origin and block every link.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    d = np.asarray(d, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = r.size
    los = np.ones(n, dtype=bool)
    if n == 0 or d.size == 0:
        return los
    half_w = 0.5 * W
    if np.any(d <= half_w):
        los[:] = False
        return los

    order = np.argsort(phi)
    phi_sorted = phi[order]
    # Duplicating the sorted angles shifted by 2*pi turns the circular window
    # search into a plain interval search: a window [lo, hi] with lo in
    # [0, 2*pi) and hi - lo < pi lands entirely inside the duplicated array.
    ext = np.concatenate((phi_sorted, phi_sorted + 2.0 * math.pi))

    # Widen the window by a few ulps so the exact test below, not angle
    # rounding, decides grazing contacts.
    half_window = np.arcsin(np.minimum(1.0, half_w / d)) + 1e-12
    lo = np.mod(psi - half_window, 2.0 * math.pi)
    start = np.searchsorted(ext, lo, side="left")
    stop = np.searchsorted(ext, lo + 2.0 * half_window, side="right")

    counts = stop - start
    total = int(counts.sum())
    if total == 0:
        return los
    blocker_idx = np.repeat(np.arange(d.size), counts)
    seq = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    link_pos = (np.repeat(start, counts) + seq) % n
    link_idx = order[link_pos]

    px = r[link_idx] * np.cos(phi[link_idx])
    py = r[link_idx] * np.sin(phi[link_idx])
    cx = d[blocker_idx] * np.cos(psi[blocker_idx])
    cy = d[blocker_idx] * np.sin(psi[blocker_idx])
    hit = _segment_dist_sq(px, py, cx, cy) <= half_w * half_w
    np.logical_and.at(los, link_idx, ~hit)
    return los
