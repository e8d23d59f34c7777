"""Planar geometry of body blockage and Poisson deployments.

The receiver sits at the origin.  Every user carries a blocking disk of
diameter W (meters) centered on their body; a link from a transmitter at
distance r is blocked when some blocking disk intersects the segment from
the origin to the transmitter, i.e. when a disk center falls within W/2 of
that segment.  The set of such centers is a stadium of area

    |A'(r)| = r W + pi W^2 / 4,

so with blockage centers forming a PPP of density lambda the link is
line of sight with probability exp(-lambda |A'(r)|).

draw_ppp is the one draw of a deployment, a PPP on a disk around the
receiver: its Poisson count, of mean ppp_mean, then its uniforms as one
2 x n block, whose values are those of two successive draws of n (numpy
fills a block in C order).  The transform of those uniforms to polar
coordinates, disk_polar, draws nothing, so a caller may draw many blocks
and transform them in one call; sample_ppp_disk draws and transforms one.
classify_los decides which of a deployment's links the bodies block.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ConfigError, check_field


def disk_polar(radius, x):
    """Polar coordinates (r, phi) of uniform points on the disk of given
    radius centered at the origin, from uniforms x of shape (2, n) or more
    rows: r = sqrt(radius^2 x[0]) follows the pdf 2r/radius^2 and
    phi = 2 pi x[1] is uniform on [0, 2*pi).  Written over x[0] and x[1],
    which are returned, so a chunk-sized block adds no chunk-sized array;
    every caller owns a fresh block.  Elementwise, so one call on the
    blocks of many deployments side by side gives each deployment's values
    bit for bit."""
    r, phi = x[0], x[1]
    r *= radius * radius
    phi *= 2.0 * math.pi
    return np.sqrt(r, out=r), phi


def ppp_mean(density, radius):
    """Mean point count of a PPP of given density on a disk of given radius.
    Zero density is the empty PPP, of mean 0 on any disk, also one whose
    area passes the float range."""
    return density * (math.pi * (radius * radius)) if density else 0.0


def draw_ppp(mean, rng):
    """A PPP's draws: its Poisson count n of the given mean, then its (2, n)
    block of radius and angle uniforms, which disk_polar transforms."""
    return rng.random((2, rng.poisson(mean)))


def sample_ppp_disk(density, radius, rng):
    """Sample a homogeneous PPP on a disk of given radius centered at the origin.

    Returns (r, phi): polar coordinates of the points, each shape (n,) with
    n ~ Poisson(density * pi * radius^2): disk_polar of draw_ppp's block.
    Zero density yields an empty sample and draws nothing; a radius that is
    not > 0 raises ValueError, and a density that breaks the config field's
    rule (model.check_field) ConfigError.
    """
    if not radius > 0.0:
        raise ValueError(f"need radius > 0, got {radius}")
    mean = ppp_mean(check_field("density", density), radius)
    return disk_polar(radius, draw_ppp(mean, rng))


def blocking_area(r, W):
    """Area |A'(r)| of the stadium of blockage-center positions that block a
    link of length r: a W/2-neighborhood of the segment, r*W + pi*W^2/4.

    Vectorized over r.  ConfigError for a W that breaks the rule of the
    config field blockage_diameter (model.check_field) and LinkLengthInvalid
    for an r that is not >= 0, NaN included; r = +inf is allowed.
    """
    W = check_field("blockage_diameter", W)
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ConfigError("LinkLengthInvalid", "link length r must be >= 0, "
                          f"got {r[~(r >= 0.0)].flat[0]}")
    out = r * W + math.pi * W * W / 4.0
    return float(out) if out.ndim == 0 else out


def blockage_probability(r, density, W):
    """Probability that a link of length r is blocked, 1 - exp(-lambda |A'(r)|).

    Vectorized over r.  Zero density gives probability 0 for every r, and
    r = +inf probability 1 at any positive density.  Refuses a density as
    model.check_field does, and r and W as blocking_area does.
    """
    density = check_field("density", density)
    area = blocking_area(r, W)
    # not 0 * inf = NaN on an infinite link
    out = np.zeros_like(area) if density == 0.0 else -np.expm1(-density * area)
    return float(out) if out.ndim == 0 else out


# Angle buckets per field, each 2*pi / _BUCKETS wide: the shadow pre-pass
# marks them, and the window search reads its candidates from them.
_BUCKETS = 512
_PER_RAD = _BUCKETS / (2.0 * math.pi)


def classify_los(r, phi, d, psi, W, link_counts=None, body_counts=None):
    """LOS masks of the links of one or more fields, in one call.

    Links run from the origin to the polar points (r[i], phi[i]); blockage
    centers sit at (d[j], psi[j]) with blocking diameter W; angles lie in
    [0, 2*pi).  The arrays hold the fields one after another: field f has
    link_counts[f] links and body_counts[f] centers, and its centers block
    only its own links.  By default all of them are one field.  Returns a
    bool array, True where no center of the link's field lies within W/2 of
    the link segment (contact counts as blocked).  A field with a center at
    d <= W/2 is all NLOS: that center covers the origin.

    A center at d > W/2 can only reach the segment toward angle phi when
    |psi - phi| <= arcsin(W / (2 d)) modulo 2*pi, so one window search over
    the links the shadow pre-pass leaves LOS finds the candidate pairs, and
    only those get the exact segment-distance test.
    A pair is tested only if its link reaches the center's disk,
    r >= d - W/2 - 1e-9: a shorter link ends more than W/2 + 1e-9 from the
    center, far above the rounding of the pair test for d up to about 1e6.

    Before the search, a shadow pre-pass settles most blocked links without
    a pair test.  The call's centers fall in one ladder of distance bands
    whose edges double from 2 / (lambda W), lambda the density that all its
    centers show (see _shadow): a chunk of fields of one density needs no
    ladder per field, and a one-field call reads its own sample's.  The
    bands set only the shadow's depth.  Each center marks its field's angle
    buckets (_BUCKETS per field) that lie entirely inside its inner window
    arcsin((W / 2d)(1 - 1e-6)), and a link in a marked bucket that is
    longer than the marking center's band edge times 1 + 1e-9 is NLOS.
    Such a link passes within (W/2)(1 - 1e-6) of that center, with the
    foot of the perpendicular strictly inside the segment, and lies inside
    the center's search window by more than 1e-9 rad, since a window that
    holds a whole bucket is that wide.  Rounding errors are far below both
    margins, so the search would block every such link too.  Every pair
    still tested gets the same window predicate and arithmetic on the same
    values, so neither the reach filter, the shadow, its ladder nor the
    number of fields in a call changes a mask.
    """
    r, phi, d, psi = (np.asarray(v, dtype=float) for v in (r, phi, d, psi))
    if link_counts is None:
        link_counts, body_counts = [r.size], [d.size]
    n_fields = len(link_counts)
    link_field = np.repeat(np.arange(n_fields), link_counts)
    body_field = np.repeat(np.arange(n_fields), body_counts)
    half_w = 0.5 * W
    los = np.ones(r.size, dtype=bool)
    near = d <= half_w
    if near.any():
        over = np.bincount(body_field[near], minlength=n_fields) > 0
        los = ~over[link_field]
        kept = ~over[body_field]
        d, psi, body_field = d[kept], psi[kept], body_field[kept]
    if not (d.size and los.any()):
        return los

    bucket = np.minimum(phi * _PER_RAD, _BUCKETS - 1).astype(np.intp)
    _shadow(los, r, bucket, link_field, d, psi, body_field, n_fields, W)
    rest = np.flatnonzero(los)
    links, bodies = _search_rows(rest, r, phi, bucket, link_field, d, psi,
                                 body_field, half_w, n_fields)
    _sweep(los, links, bodies, half_w)
    return los


def _shadow(los, r, bucket, link_field, d, psi, body_field, n_fields, W):
    """Clear los[i] for each link i in an angle bucket that lies entirely
    inside the inner window of a center whose band edge, times 1 + 1e-9,
    the link is longer than.

    The first edge is 2 / (lambda W), with lambda = n / (pi max(d)^2 m) the
    density that the n centers show on the m fields that hold them
    (body_field runs in field order), or max(d) when max(d)^2 underflows,
    so the doubling always reaches max(d).  Band k holds
    edge 2^(k-1) < d <= edge 2^k, or d <= edge for k = 0, the doubled edges
    exact.  frexp reads k off the ratio d / edge: rounded correctly, it is
    a power of two 2^k only when d <= edge 2^k, and above 2^(k-1) only
    when d > edge 2^(k-1).
    """
    d_max = d.max()
    sampled = 1 + np.count_nonzero(body_field[1:] != body_field[:-1])
    with np.errstate(over="ignore"):
        edge = 2.0 * math.pi * d_max * d_max * sampled / (d.size * W)
        edge = edge if edge > 0.0 else d_max
        mantissa, band = np.frexp(d / edge)
        band = np.maximum(band - (mantissa == 0.5), 0)
        beyond = np.ldexp(edge, np.arange(band.max() + 1)) * (1.0 + 1e-9)
    # only the bands whose edge some link passes can shadow it
    n_bands = int(np.count_nonzero(beyond < r.max()))
    if not n_bands:
        return
    inner = np.arcsin(0.5 * W / d * (1.0 - 1e-6))
    lo = np.ceil((psi - inner) * _PER_RAD).astype(np.intp)
    full = np.floor((psi + inner) * _PER_RAD).astype(np.intp) - lo
    fits = np.flatnonzero((full > 0) & (band < n_bands))
    # each center's buckets as a run on a row of one turn per band and
    # field, split in two where it wraps past 2 pi
    row = _BUCKETS * (band * n_fields + body_field)[fits]
    lo = lo[fits] % _BUCKETS
    hi = lo + full[fits]
    wraps = hi > _BUCKETS
    size = _BUCKETS * n_bands * n_fields + 1
    ramp = np.bincount(np.concatenate((row + lo, row[wraps])), minlength=size)
    ramp -= np.bincount(np.concatenate((row + np.minimum(hi, _BUCKETS),
                                        row[wraps] + hi[wraps] - _BUCKETS)),
                        minlength=size)
    covered = (np.cumsum(ramp[:-1], out=ramp[:-1]) > 0).reshape(n_bands, n_fields, _BUCKETS)
    # per field and bucket, the length past which a marking center blocks
    reach = np.where(covered, beyond[:n_bands, None, None], math.inf).min(axis=0)
    los[r > reach.ravel()[bucket + _BUCKETS * link_field]] = False


def _search_rows(rest, r, phi, bucket, link_field, d, psi, body_field, half_w,
                 n_fields):
    """The links ``rest`` left LOS and every center as _sweep searches them.

    Each field has a row of two turns of angle buckets, and each link sits
    in it twice: in its angle's bucket, and a turn later with angle + 2 pi,
    the value the window predicate reads then.  A window [lo, hi], lo in
    [0, 2 pi] and hi - lo < pi, widened by 1e-9 rad against rounding,
    covers one run of its field's row, whose links are a superset of its
    pairs; the predicate keeps exactly them.  Returns (link, angle, r, px,
    py) by row position and (d, psi, win_lo, win_hi, run start, run stop) by
    center.
    """
    # Widen the window by a few ulps so the exact test, not angle rounding,
    # decides grazing contacts.  Every center here has d > W/2, and
    # psi - half_window lies in (-pi, 2 pi), where this is
    # np.mod(psi - half_window, 2 pi), value for value.
    half_window = np.arcsin(half_w / d) + 1e-12
    win_lo = psi - half_window
    win_lo = np.where(win_lo < 0.0, win_lo + 2.0 * math.pi, win_lo)
    win_hi = win_lo + 2.0 * half_window
    lr, lphi = r[rest], phi[rest]
    slot = bucket[rest] + 2 * _BUCKETS * link_field[rest]
    slots = np.concatenate((slot, slot + _BUCKETS))
    order = np.argsort(slots)
    px, py = lr * np.cos(lphi), lr * np.sin(lphi)
    links = (np.concatenate((rest, rest))[order],
             np.concatenate((lphi, lphi + 2.0 * math.pi))[order],
             np.concatenate((lr, lr))[order],
             np.concatenate((px, px))[order],
             np.concatenate((py, py))[order])
    run = np.zeros(2 * _BUCKETS * n_fields + 1, dtype=np.intp)
    np.cumsum(np.bincount(slots, minlength=run.size - 1), out=run[1:])
    row = 2 * _BUCKETS * body_field
    return links, (d, psi, win_lo, win_hi,
                   run[row + (np.maximum(win_lo - 1e-9, 0.0) * _PER_RAD).astype(np.intp)],
                   run[row + ((win_hi + 1e-9) * _PER_RAD).astype(np.intp) + 1])


def _sweep(los, links, bodies, half_w):
    """Clear los[i] for each link i of the rows that a center blocks, testing
    exactly the pairs whose center's angular window [win_lo, win_hi] holds
    phi[i] or phi[i] + 2*pi and whose link reaches the center's disk,
    r[i] >= d - W/2 - 1e-9; a center's run of buckets holds links of its
    own field only."""
    link, angle, length, px, py = links
    d, psi, win_lo, win_hi, first, stop = bodies
    counts = stop - first
    body_idx = np.repeat(np.arange(counts.size), counts)
    pos = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
    a = angle[pos]
    keep = ((win_lo[body_idx] <= a) & (a <= win_hi[body_idx])
            & (length[pos] >= (d - half_w - 1e-9)[body_idx]))
    pos, body_idx = pos[keep], body_idx[keep]

    # squared distance from each center to its link segment [0, (px, py)];
    # a zero-length link degenerates to the origin.  np.clip is this
    # maximum and minimum.
    lpx, lpy = px[pos], py[pos]
    lseg = lpx * lpx + lpy * lpy
    bd, bpsi = d[body_idx], psi[body_idx]
    bcx, bcy = bd * np.cos(bpsi), bd * np.sin(bpsi)
    dot = bcx * lpx + bcy * lpy
    on = lseg > 0.0
    t = np.where(on, dot / np.where(on, lseg, 1.0), 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    dx = bcx - t * lpx
    dy = bcy - t * lpy
    hit = dx * dx + dy * dy <= half_w * half_w
    los[link[pos[hit]]] = False
