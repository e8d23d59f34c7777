"""Poisson deployment sampling and body-blockage geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config
from oracles import is_blocked, sample_ppp_annulus, segment_dist_sq
from wearnet import geometry, mcsim


def test_annulus_count_and_support():
    rng = np.random.default_rng(11)
    density, r_in, r_out = 4.0, 2.0, 5.0
    mean = density * math.pi * (r_out**2 - r_in**2)  # 263.89
    counts = []
    for _ in range(3000):
        r, phi = sample_ppp_annulus(density, r_in, r_out, rng)
        counts.append(r.size)
        assert r.size == phi.size
        if r.size:
            assert r.min() >= r_in and r.max() <= r_out
            assert phi.min() >= 0.0 and phi.max() < 2.0 * math.pi
    counts = np.asarray(counts, dtype=float)
    # Poisson: se of the sample mean is sqrt(mean/n)
    se = math.sqrt(mean / counts.size)
    assert abs(counts.mean() - mean) < 3.5 * se


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_disk_refuses_nonpositive_radius(radius):
    with pytest.raises(ValueError):
        geometry.sample_ppp_disk(1.0, radius, np.random.default_rng(0))


@pytest.mark.parametrize("density", [-1.0, -1e-300, math.nan])
def test_disk_refuses_negative_or_nan_density(density):
    # refused by the density field's rule (model.check_field), by name,
    # before numpy's Poisson sampler sees the mean
    with pytest.raises(ValueError) as err:
        geometry.sample_ppp_disk(density, 5.0, np.random.default_rng(0))
    assert err.value.violation == ("ValueNotFinite" if math.isnan(density)
                                   else "DensityNegative")


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


def _recorded_fields(monkeypatch):
    """A list that gets each result of mcsim._fields while the test runs."""
    fields, step = [], mcsim._fields

    def recording(*args):
        fields.append(step(*args))
        return fields[-1]

    monkeypatch.setattr(mcsim, "_fields", recording)
    return fields


def test_density_zero_gives_empty_sample(monkeypatch):
    # a Poisson(0) count and a (2, 0) block draw nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    r, phi = geometry.sample_ppp_disk(0.0, 5.0, rng)
    assert r.size == 0 and phi.size == 0
    # the FULL field step's trial range at zero density: its one trial,
    # drawn from rng, has two empty PPPs and no links
    monkeypatch.setattr(mcsim, "_substreams", lambda seed, start, stop: iter([rng]))
    fields = _recorded_fields(monkeypatch)
    cfg = make_config(**{"lambda": 0.0})
    counts = mcsim._run_los_count_range(cfg, mcsim._field_disks(cfg), 0, 0, 1)
    (r, phi, los, count), = fields
    assert r.size == 0 and phi.size == 0 and los.size == 0
    assert count.tolist() == counts.tolist() == [0]
    assert rng.bit_generator.state == state


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


@pytest.mark.parametrize("r, W, violation", [
    (-1.0, 0.3, "LinkLengthInvalid"),
    (math.nan, 0.3, "LinkLengthInvalid"),
    (np.array([0.5, -math.inf]), 0.3, "LinkLengthInvalid"),
    (1.0, -0.3, "BlockageDiameterNotPositive"),
    (1.0, math.nan, "ValueNotFinite"),
    (1.0, "0.3", "ValueNotReal"),
], ids=["r-negative", "r-nan", "r-minus-inf", "W-negative", "W-nan", "W-str"])
def test_blockage_refusals_are_named(r, W, violation):
    # each used to give a negative "probability" or area, NaN, or an
    # unnamed error; a bad density is in test_model's one-name test
    for call in (lambda: geometry.blocking_area(r, W),
                 lambda: geometry.blockage_probability(r, 3.0, W)):
        with pytest.raises(ValueError) as err:
            call()
        assert err.value.violation == violation


def test_infinite_link_is_blocked_unless_no_bodies():
    assert geometry.blocking_area(math.inf, 0.3) == math.inf
    assert geometry.blockage_probability(math.inf, 3.0, 0.3) == 1.0
    # not 0 * inf = NaN: zero density blocks no link
    assert geometry.blockage_probability(math.inf, 0.0, 0.3) == 0.0
    got = geometry.blockage_probability(np.array([0.0, 1.0, math.inf]), 0.0, 0.3)
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_blockage_probability_matches_frequency():
    # sample blockage PPPs around a fixed link of length r = 1 and compare
    # the hit frequency against the stadium-area formula (3.5 sigma)
    rng = np.random.default_rng(13)
    lam, W, r = 3.0, 0.3, 1.0
    n = 20000
    hits = 0
    for _ in range(n):
        d, psi = geometry.sample_ppp_disk(lam, r + W / 2.0, rng)
        hits += is_blocked(r, 0.0, d, psi, W)
    p = geometry.blockage_probability(r, lam, W)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) < 3.5 * se


def test_is_blocked_basic_cases():
    W = 0.3

    def blocked(r, phi, d, psi):
        return is_blocked(r, phi, np.atleast_1d(np.asarray(d, dtype=float)),
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
        base = is_blocked(r, 0.0, d, psi, W)
        turned = is_blocked(r, rot, d, np.mod(psi + rot, 2.0 * math.pi), W)
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
        slow = np.array([not is_blocked(r[i], phi[i], d, psi, W)
                         for i in range(n)], dtype=bool)
        assert np.array_equal(fast, slow), f"mismatch on fuzz trial {trial}"


def test_classify_los_center_blocker():
    # a blocker overlapping the receiver blocks every link
    r = np.array([0.5, 3.0, 9.0])
    phi = np.array([0.0, 2.0, 4.0])
    los = geometry.classify_los(r, phi, np.array([0.1]), np.array([1.0]), 0.3)
    assert not np.any(los)


def _bruteforce_los(r, phi, d, psi, W):
    # every link against every center with the oracle's segment distance,
    # 64 links at a time
    cx, cy = d * np.cos(psi), d * np.sin(psi)
    los = np.ones(np.size(r), dtype=bool)
    for lo in range(0, np.size(r), 64):
        px = (r[lo:lo + 64] * np.cos(phi[lo:lo + 64]))[:, None]
        py = (r[lo:lo + 64] * np.sin(phi[lo:lo + 64]))[:, None]
        los[lo:lo + 64] = ~np.any(segment_dist_sq(px, py, cx, cy) <= 0.25 * W * W, axis=1)
    return los


@pytest.mark.parametrize("lam, r_net", [(1.0, 10.0), (3.0, 10.0), (5.0, 10.0),
                                        (3.0, 20.0), (5.0, 20.0)])
def test_classify_los_dense_fields_match_bruteforce(lam, r_net):
    # PPP fields as the full mode draws them, from sparse (a weak shadow:
    # its first edge is 2 / (lambda W), 6.7 m at lambda = 1) to dense
    rng = np.random.default_rng(int(lam * 100 + r_net))
    W = 0.3
    for _ in range(3 if r_net < 20.0 else 1):  # the oracle is all-pairs
        r, phi = geometry.sample_ppp_disk(lam, r_net, rng)
        d, psi = geometry.sample_ppp_disk(lam, r_net + W / 2.0, rng)
        d, psi = d[d > W / 2.0], psi[d > W / 2.0]  # keep the search running
        los = geometry.classify_los(r, phi, d, psi, W)
        assert np.array_equal(los, _bruteforce_los(r, phi, d, psi, W))
        assert 0 < np.count_nonzero(los) < r.size


def test_classify_los_band_edges():
    # a call's first band edge is its sample edge e = 2 pi d_max^2 m / (n W)
    # for n centers on m fields, here 500 centers out to d_max = 10 on one.
    # One center sits exactly on e and one just past it; one link ends
    # exactly at e - W/2, and one just short of that.
    W, n, d_max = 0.3, 500, 10.0
    edge = 2.0 * math.pi * d_max ** 2 / (n * W)
    rng = np.random.default_rng(18)
    d = np.concatenate(([edge, np.nextafter(edge, d_max), d_max],
                        rng.uniform(0.2, d_max, size=n - 3)))
    psi = np.concatenate(([0.5, 2.0, 3.0], rng.uniform(3.5, 6.0, size=n - 3)))
    r = np.array([edge + 1.0, edge - W / 2.0, edge - W / 2.0 - 1e-6, d_max - 0.05])
    phi = np.array([0.5, 2.0, 2.0, 3.0])
    los = geometry.classify_los(r, phi, d, psi, W)
    assert np.array_equal(los, _bruteforce_los(r, phi, d, psi, W))
    assert list(los) == [False, True, True, False]


def test_classify_los_reach_boundary():
    # links toward a center at (d, psi) = (5, 1) that end just short of its
    # disk, d - W/2 - 1e-7, or just inside it, by 1e-10 and by 1e-7.  The
    # shadow settles none of them (r < d <= the first band edge), so the
    # pair filter r >= d - W/2 - 1e-9 alone decides which get the exact
    # test: it must keep both that reach in.
    W, d = 0.3, 5.0
    r = d - W / 2.0 + np.array([-1e-7, 1e-10, 1e-7])
    phi = np.ones(3)
    want = [True, False, False]
    los = geometry.classify_los(r, phi, [d], [1.0], W)
    assert list(los) == want
    assert np.array_equal(los, _bruteforce_los(r, phi, np.array([d]), np.ones(1), W))
    # the same field between two dense ones, in one call
    rng = np.random.default_rng(19)
    dense = [geometry.sample_ppp_disk(3.0, 10.0, rng) for _ in range(4)]
    links = [dense[0], (r, phi), dense[1]]
    bodies = [dense[2], ([d], [1.0]), dense[3]]
    los = geometry.classify_los(*map(np.concatenate, zip(*links)),
                                *map(np.concatenate, zip(*bodies)), W,
                                [len(f[0]) for f in links], [len(f[0]) for f in bodies])
    assert list(los[dense[0][0].size:][:3]) == want


def test_classify_los_window_wraps_across_zero():
    # a center just above angle 0 shadows links just below 2 pi and the
    # reverse; an unrelated link stays LOS
    W = 0.3
    d = np.array([2.0, 3.0])
    psi = np.array([0.01, 2.0 * math.pi - 0.01])
    r = np.array([5.0, 5.0, 5.0])
    phi = np.array([2.0 * math.pi - 0.005, 0.005, math.pi])
    los = geometry.classify_los(r, phi, d, psi, W)
    assert np.array_equal(los, _bruteforce_los(r, phi, d, psi, W))
    assert list(los) == [False, False, True]


def test_classify_los_repeated_angles():
    # several links and centers share one angle exactly
    W = 0.3
    r = np.array([0.5, 1.0, 4.0, 4.0, 8.0, 8.0])
    phi = np.array([1.0, 1.0, 1.0, 1.0, 4.0, 4.0])
    d = np.array([2.0, 2.0, 6.0, 9.5])
    psi = np.array([1.0, 1.0, 4.0, 4.0])
    los = geometry.classify_los(r, phi, d, psi, W)
    assert np.array_equal(los, _bruteforce_los(r, phi, d, psi, W))
    assert list(los) == [True, True, False, False, False, False]


def test_classify_los_empty_inputs():
    none = np.array([])
    some = np.array([1.0, 2.0])
    assert geometry.classify_los(none, none, some, some, 0.3).shape == (0,)
    assert geometry.classify_los(none, none, none, none, 0.3).shape == (0,)
    assert list(geometry.classify_los(some, some, none, none, 0.3)) == [True, True]


_angles = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
_lengths = st.floats(0.0, 12.0)


@settings(max_examples=150, deadline=None)
@given(links=st.lists(st.tuples(_lengths, _angles), max_size=40),
       centers=st.lists(st.tuples(_lengths, _angles), min_size=1, max_size=80),
       W=st.floats(0.05, 2.5))
def test_classify_los_property(links, centers, W):
    # with W up to 2.5 and up to 80 centers several bands can run; the mask
    # equals the oracle, and one more center never turns a NLOS link LOS
    r, phi = np.array(links, dtype=float).reshape(-1, 2).T
    d, psi = np.array(centers, dtype=float).reshape(-1, 2).T
    los = geometry.classify_los(r, phi, d, psi, W)
    assert np.array_equal(los, _bruteforce_los(r, phi, d, psi, W))
    fewer = geometry.classify_los(r, phi, d[:-1], psi[:-1], W)
    assert not np.any(los & ~fewer)


_TWO_PI = 2.0 * math.pi


def _turn(angle):
    # an angle taken into [0, 2 pi), which % alone can round up to 2 pi
    return min(angle % _TWO_PI, math.nextafter(_TWO_PI, 0.0))


@st.composite
def _field(draw, W):
    # random links and centers, plus the limit cases of the sweep and its
    # shadow pre-pass: a crowd of centers that shadows most links, a center
    # over the origin (the field is all NLOS), a center just past W/2, a
    # window wrapping across angle 0, and around a center: links on and
    # just off its inner window's and its window's edges, short links
    # inside its window, and links just beyond the first band edge of the
    # field's own one-field call at its angle (a call of several fields
    # shares one ladder, from the density of all their centers)
    half_w = 0.5 * W
    links = draw(st.lists(st.tuples(_lengths, _angles), max_size=25))
    # centers out to a drawn distance: dense enough near the receiver, the
    # band edges fall inside the links' reach and the pre-pass shadows them
    reach = draw(st.floats(0.5, 12.0))
    centers = draw(st.lists(st.tuples(st.floats(0.0, reach), _angles), max_size=30))
    if draw(st.booleans()):
        # a crowd: a ring of centers whose windows shadow most of the turn
        n, d, turn = draw(st.integers(8, 48)), draw(st.floats(1.01 * half_w, 6.0)), draw(_angles)
        centers += [(d * (1.0 + 0.5 * k / n), _turn(turn + _TWO_PI * k / n))
                    for k in range(n)]
    kinds = draw(st.lists(st.sampled_from(
        ("origin", "grazing", "wrap", "window edges", "inside", "band edge")), max_size=5))
    for kind in kinds:
        if kind == "origin":
            # clear of d = W/2, where the oracle's rounding decides contact
            centers.append((draw(st.floats(0.0, 0.99 * half_w)), draw(_angles)))
        elif kind == "grazing":
            centers.append((half_w * (1.0 + 1e-12), draw(_angles)))
        elif kind == "wrap":
            psi = draw(st.floats(-0.2, 0.2))
            centers.append((draw(st.floats(1.01 * half_w, 12.0)), _turn(psi)))
            links.append((draw(_lengths), _turn(-psi)))
    around = [c for c in centers if c[0] > half_w]
    for kind in kinds:
        if not around:
            break
        d, psi = around[draw(st.integers(0, len(around) - 1))]
        inner = math.asin(half_w / d * (1.0 - 1e-6))
        if kind == "window edges":
            off = draw(st.sampled_from((0.0, 1e-9, 1e-6, 1e-3)))
            length = draw(st.floats(d, d + 12.0))
            for half in (inner, math.asin(half_w / d)):
                links += [(length, _turn(psi - half - off)), (length, _turn(psi + half + off))]
        elif kind == "inside":
            links += [(d * part, _turn(psi + inner * (2.0 * part - 1.0)))
                      for part in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))]
        elif kind == "band edge":
            dist = np.array(centers)[:, 0]
            edge = 2.0 * math.pi * dist.max() ** 2 / (dist.size * W)
            beyond = edge * (1.0 + 1e-9)
            links += [(length, psi) for length in
                      (edge, beyond, math.nextafter(beyond, math.inf), 2.0 * beyond)]
    return links, centers


def _classify_fields(fields, W):
    # one classify_los call on a list of ((r, phi), (d, psi)) fields, its
    # mask split back into one per field
    (r, phi), (d, psi) = ([np.concatenate(column) for column in zip(*part)]
                          for part in zip(*fields))
    sizes = [f[0][0].size for f in fields]
    los = geometry.classify_los(r, phi, d, psi, W, sizes, [f[1][0].size for f in fields])
    return np.split(los, np.cumsum(sizes)[:-1])


def _assert_fields_match(fields, W):
    # each field gets the oracle's mask and its own one-field call's
    for got, ((r, phi), (d, psi)) in zip(_classify_fields(fields, W), fields):
        want = _bruteforce_los(r, phi, d, psi, W)
        assert np.array_equal(got, want)
        assert np.array_equal(geometry.classify_los(r, phi, d, psi, W), want)


@settings(max_examples=150, deadline=None)
@given(W=st.floats(0.05, 2.5), data=st.data())
def test_classify_los_chunk_property(W, data):
    # one call on a list of fields, empty ones and ones without centers
    # included, gives each field the oracle's mask and its own call's
    _assert_fields_match(
        [tuple(np.array(items, dtype=float).reshape(-1, 2).T for items in field)
         for field in data.draw(st.lists(_field(W), min_size=1, max_size=5))], W)


def _fig6_fields(lam, n, rng, W=0.3, r_net=10.0):
    # full-mode fields as fig6 draws them, without the centers within W/2
    # (a field with one is all NLOS, and the shadow never sees it)
    fields = []
    for _ in range(n):
        links = geometry.sample_ppp_disk(lam, r_net, rng)
        d, psi = geometry.sample_ppp_disk(lam, r_net + W / 2.0, rng)
        fields.append((links, (d[d > W / 2.0], psi[d > W / 2.0])))
    return fields


def test_classify_los_one_ladder_for_unlike_fields():
    # one call reads one ladder of band edges, from the density of all its
    # centers, for fields whose own calls read far apart ones: a sparse and
    # a dense fig6 field, three far centers, no center, and one center
    # within W/2 (all NLOS)
    W = 0.3
    rng = np.random.default_rng(22)
    (sparse,), (dense,) = _fig6_fields(0.5, 1, rng), _fig6_fields(5.0, 1, rng)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=30)
    far = ((np.concatenate(([9.8, 10.0, 9.0], rng.uniform(0.0, 10.0, size=30))),
            np.concatenate(([1.0, 2.5, 4.0], angles))),
           (np.array([9.0, 9.5, 10.1]), np.array([1.0, 2.5, 4.0])))
    empty = ((rng.uniform(0.0, 10.0, size=20), angles[:20]), (np.array([]), np.array([])))
    near = ((rng.uniform(0.0, 10.0, size=10), angles[:10]), (np.array([0.1]), np.array([2.0])))
    fields = [sparse, far, empty, dense, near]
    _assert_fields_match(fields, W)
    masks = _classify_fields(fields, W)
    assert list(masks[1][:3]) == [False, False, True]
    assert masks[2].all() and not masks[4].any()
    assert 0 < np.count_nonzero(masks[3]) < masks[3].size


@pytest.mark.parametrize("per_call", [1, 16])
def test_classify_los_shadow_settles_most_blocked_links(monkeypatch, per_call):
    # No mask depends on the shadow pre-pass, so no pinned byte notices a
    # shadow that settles nothing, though the window search then takes
    # about 5x as long on fig6.  At lambda = 3 the shadow settles about
    # 0.93 of the NLOS links before the search sees them, one field per
    # call and 16
    W = 0.3
    searched = []
    search_rows = geometry._search_rows

    def recording(rest, *args):
        searched.append(rest)
        return search_rows(rest, *args)

    monkeypatch.setattr(geometry, "_search_rows", recording)
    fields = _fig6_fields(3.0, 48, np.random.default_rng(23))
    blocked = unsettled = 0
    for k in range(0, len(fields), per_call):
        searched.clear()
        los = np.concatenate(_classify_fields(fields[k:k + per_call], W))
        blocked += np.count_nonzero(~los)
        if searched:
            unsettled += np.count_nonzero(~los[searched[0]])
    assert unsettled < 0.1 * blocked


def test_classify_los_when_the_shadow_settles_every_link(monkeypatch):
    # every link runs far past a center on its own bearing, so the shadow
    # pre-pass settles all of them and the window search gets no link, in
    # a two-field call and in each field's own call
    W = 0.3
    fields = [((np.array([100.0, 120.0, 150.0]), np.array([1.0, 2.0, 4.0])),
               (np.array([1.0, 1.5, 2.0]), np.array([1.0, 2.0, 4.0]))),
              ((np.array([110.0, 130.0]), np.array([0.5, 0.52])),
               (np.array([1.2]), np.array([0.51])))]
    left_los = []
    shadow = geometry._shadow

    def recording(los, *args):
        shadow(los, *args)
        left_los.append(np.count_nonzero(los))

    monkeypatch.setattr(geometry, "_shadow", recording)
    masks = _classify_fields(fields, W)
    for mask, ((r, phi), (d, psi)) in zip(masks, fields):
        want = [not is_blocked(r[i], phi[i], d, psi, W) for i in range(r.size)]
        assert list(mask) == want == [False] * r.size
        assert np.array_equal(geometry.classify_los(r, phi, d, psi, W), mask)
    assert left_los == [0, 0, 0]


def test_sample_deployment_regions(monkeypatch):
    # the FULL-mode draw of the LOS-count trial range: interferers on the
    # network disk, then blockage centers on the disk of radius r_net + W/2,
    # both transformed through mcsim's name in _fields, and the draws
    # sample_ppp_disk makes on those disks
    calls = []

    def recording_polar(radius, x):
        r, phi = geometry.disk_polar(radius, x)
        calls.append((radius, r, phi))
        return r, phi

    monkeypatch.setattr(mcsim, "disk_polar", recording_polar)
    fields = _recorded_fields(monkeypatch)
    rng, twin = np.random.default_rng(17), np.random.default_rng(17)
    # every trial of the range draws from rng in turn
    monkeypatch.setattr(mcsim, "_substreams",
                        lambda seed, start, stop: (rng for _ in range(start, stop)))
    W, r_net = 0.3, 10.0
    cfg = make_config(W=W, r_net=r_net)
    counts = mcsim._run_los_count_range(cfg, mcsim._field_disks(cfg), 0, 0, 50)
    assert len(calls) == 2 * len(fields) == 100
    max_b = 0.0
    for k, (r, phi, los, count) in enumerate(fields):
        (r_i, drawn_i, _), (r_b, drawn_b, drawn_bphi) = calls[2 * k:2 * k + 2]
        assert (r_i, r_b) == (r_net, r_net + W / 2.0)
        assert drawn_i is r
        for got, want in zip((r, phi, drawn_b, drawn_bphi),
                             (*geometry.sample_ppp_disk(cfg.density, r_net, twin),
                              *geometry.sample_ppp_disk(cfg.density, r_net + W / 2.0, twin))):
            assert np.array_equal(got, want)
        assert np.array_equal(los, geometry.classify_los(r, phi, drawn_b, drawn_bphi, W))
        assert count.tolist() == [np.count_nonzero(los)] == [counts[k]]
        if r.size:
            assert r.max() <= r_net
        if drawn_b.size:
            assert drawn_b.max() <= r_net + W / 2.0
            max_b = max(max_b, drawn_b.max())
    # the blockage margin beyond r_net is actually used
    assert max_b > r_net
