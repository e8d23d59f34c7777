"""Monte Carlo SINR engine: fading law, trial laws, determinism."""

import concurrent.futures
import dataclasses
import math
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import oracles
from conftest import figure_config, make_config
from wearnet import analytic, experiments, geometry, losball, mcsim
from wearnet.model import ConfigError
from wearnet.quadrature import QuadratureNotConverged


def test_nakagami_fading_moments():
    rng = np.random.default_rng(31)
    n = 200000
    for m in (1, 3, 8):
        h = mcsim.sample_nakagami_power(m, rng, n)
        # Gamma(m, 1/m): mean 1, variance 1/m
        assert abs(h.mean() - 1.0) < 3.5 / math.sqrt(n * m)
        assert abs(h.var() - 1.0 / m) < 0.02 / m
    # m = 1 is exponential: P(h > 1) = 1/e
    h1 = mcsim.sample_nakagami_power(1, rng, n)
    p = np.mean(h1 > 1.0)
    assert abs(p - math.exp(-1.0)) < 3.5 * math.sqrt(p * (1 - p) / n)
    # m = 64 concentrates: std = 1/8
    h64 = mcsim.sample_nakagami_power(64, rng, n)
    assert abs(h64.std() - 0.125) < 0.005
    # scalar draw
    assert np.ndim(mcsim.sample_nakagami_power(3, rng)) == 0
    # a shape outside [1, inf) is refused; NaN and +inf fail no `m < 1`
    # test, and numpy's gamma sampler returns NaN for both
    for m in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="Nakagami shape"):
            mcsim.sample_nakagami_power(m, rng, 2)


def test_zero_density_samples():
    # no interferers: SINR = Gt Gr h R0^-aL / noise with h ~ Exp(1) and an
    # all-zero interference column, in both modes.  Each PPP's Poisson(0)
    # count draws nothing, so trial k's h is the first draw of its
    # substream, bit for bit
    cfg = make_config(**{"lambda": 0.0})
    assert cfg.m_los == 1
    gain = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
            * cfg.ref_distance ** (-cfg.alpha_los))
    coef = gain / cfg.noise_power
    n = 20000
    first = np.array([oracles.substream(32, k).gamma(1.0, 1.0) for k in range(n)])
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        samples = mcsim.simulate_sinr_samples(mode, cfg, n, master_seed=32)
        assert np.all(samples[:, 1] == 0.0)
        assert np.array_equal(samples[:, 0], gain * first / cfg.noise_power)
        h = samples[:, 0] / coef
        assert abs(h.mean() - 1.0) < 3.5 / math.sqrt(n)
        p = np.mean(h > 1.0)
        assert abs(p - math.exp(-1.0)) < 3.5 * math.sqrt(p * (1 - p) / n)
    assert mcsim.estimate_mean_los_count(cfg, 50, master_seed=32) == (0.0, 0.0)


def test_silent_network_samples():
    cfg = make_config(p_t=0.0)
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        samples = mcsim.simulate_sinr_samples(mode, cfg, 50, master_seed=33)
        assert np.all(samples[:, 1] == 0.0)
        assert np.all(samples[:, 0] > 0.0)


def test_losball_interference_mean():
    # E[I] over the ball: 2 pi lam p_t (q.G) rho int_0^R r^(1-aL) dr by
    # Campbell's formula.  alpha_L = 0.9 < 1 keeps not just the mean but the
    # variance of each trial's aggregate finite, so the 3.5 sigma band is valid
    # (for alpha_L >= 1 the near-origin tail has infinite variance and the
    # sample mean converges too slowly to test this way).
    for p_t in (1.0, 0.5):
        cfg = make_config(alpha_L=0.9, p_t=p_t)
        r_los = losball.los_ball_radius(cfg.density, cfg.blockage_diameter,
                                        cfg.net_radius)
        table = analytic.coverage_params(cfg).gain_table
        radial, _ = integrate.quad(lambda r: r ** (1.0 - cfg.alpha_los), 0.0, r_los)
        want = (cfg.density * 2.0 * math.pi * cfg.tx_probability
                * table.mean_gain() * cfg.power_ratio * radial)
        samples = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 8000, master_seed=34)
        got = samples[:, 1].mean()
        se = samples[:, 1].std(ddof=1) / math.sqrt(samples.shape[0])
        assert abs(got - want) < 3.5 * se, (p_t, got, want, se)


def test_mean_los_count_matches_closed_form():
    cfg = make_config()
    mean, se = mcsim.estimate_mean_los_count(cfg, 3000, master_seed=35)
    want = losball.mean_los_interferers(cfg.density, cfg.blockage_diameter,
                                        cfg.net_radius)
    assert se < 0.5
    assert abs(mean - want) < 3.5 * se


def test_empirical_ccdf_hand_case():
    dist = mcsim.empirical_ccdf(np.array([1.0, 2.0, 3.0, 4.0]),
                                np.array([0.0, 1.5, 2.5, 5.0]))
    assert np.array_equal(dist.ccdf, [1.0, 0.75, 0.5, 0.0])
    assert dist.n_trials == 4
    want_se = np.sqrt(dist.ccdf * (1.0 - dist.ccdf) / 4.0)
    assert np.allclose(dist.stderr, want_se, rtol=0.0, atol=1e-15)
    assert np.array_equal(dist.cdf, 1.0 - dist.ccdf)
    # ties sit on the closed side: P(X > 2) counts strictly greater
    tied = mcsim.empirical_ccdf(np.array([2.0, 2.0, 3.0]), np.array([2.0]))
    assert tied.ccdf[0] == pytest.approx(1.0 / 3.0)


def test_empirical_ccdf_rejects_bad_grid():
    # the named refusals of model.check_grid; a NaN passes every order
    # comparison, so it is refused by itself
    for grid, violation in (([2.0, 1.0], "GridNotAscending"),
                            ([], "MalformedGrid"),
                            ([[1.0, 2.0]], "MalformedGrid"),
                            ([np.nan], "ThresholdNaN"),
                            ([1.0, np.nan, 2.0], "ThresholdNaN")):
        with pytest.raises(ConfigError) as err:
            mcsim.empirical_ccdf(np.array([1.0]), np.array(grid))
        assert err.value.violation == violation
    # +inf thresholds are sorted and exceeded by nothing, with no inf - inf
    # (a RuntimeWarning, an error under this suite)
    dist = mcsim.empirical_ccdf(np.array([0.5, 2.0]), np.array([1.0, np.inf, np.inf]))
    assert np.array_equal(dist.ccdf, [0.5, 0.0, 0.0])


def test_empirical_ccdf_refuses_no_samples():
    # no samples gave a CCDF and stderr of NaN and a RuntimeWarning
    with pytest.raises(ConfigError) as err:
        mcsim.empirical_ccdf(np.array([]), [0.0, 1.0])
    assert err.value.violation == "TrialCountInvalid"


def test_nan_sinr_refused_not_counted():
    # a reference power and an interference sum both past the float range
    # give every FULL trial the SINR inf / inf = NaN, which a CCDF would
    # count as above every threshold and a mean rate would carry as NaN;
    # the overflow and the NaN raise no RuntimeWarning on the way
    cfg = make_config(R0=1e-100, power_ratio=1e308)
    for call in (lambda: mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 5, 0),
                 lambda: mcsim.simulate_ccdf(mcsim.FULL, cfg, 5, [0.0, 1.0], 0),
                 lambda: mcsim.estimate_ergodic_se(mcsim.FULL, cfg, 5, 0),
                 lambda: mcsim.empirical_ccdf([1.0, math.nan], [0.0, 1.0])):
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.violation == "SampleNaN"
    # LOSBALL refuses the overflowing mean power outside the ball first
    with pytest.raises(ConfigError) as err:
        mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 5, 0)
    assert err.value.violation == "NlosPowerOverflow"


def test_bad_threshold_grid_refused_before_trials(monkeypatch):
    # an empty or 2-d grid, a NaN (which passes every order comparison) or
    # a value below the one before it is a named ConfigError raised before
    # any trial runs
    def no_trials(*args, **kwargs):
        pytest.fail("trials ran before the grid was refused")

    monkeypatch.setattr(mcsim, "_map_trials", no_trials)
    cfg = make_config()
    for simulate in (mcsim.simulate_ccdf, mcsim.simulate_se_ccdf):
        for grid, violation in (([2.0, 1.0], "GridNotAscending"),
                                ([0.0, 3.0, 3.0, 2.5], "GridNotAscending"),
                                ([np.nan], "ThresholdNaN"),
                                ([1.0, np.nan, 2.0], "ThresholdNaN"),
                                ([], "MalformedGrid"),
                                ([[1.0, 2.0]], "MalformedGrid")):
            with pytest.raises(ConfigError) as err:
                simulate(mcsim.LOSBALL, cfg, 100, grid, master_seed=0)
            assert err.value.violation == violation


def test_zero_density_on_a_disk_whose_area_overflows():
    # pi r_net^2 is +inf at r_net = 1e200; zero density is still the empty
    # PPP, of mean 0 (0 * inf, a NaN mean, used to reach numpy's Poisson
    # sampler), and its trials are those of any other disk
    cfg = make_config(**{"lambda": 0.0, "r_net": 1e200})
    assert geometry.ppp_mean(0.0, 1e200) == 0.0
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        samples = mcsim.simulate_sinr_samples(mode, cfg, 50, master_seed=32)
        assert np.all(samples[:, 1] == 0.0) and np.all(np.isfinite(samples[:, 0]))
        assert np.array_equal(samples, mcsim.simulate_sinr_samples(
            mode, make_config(**{"lambda": 0.0}), 50, master_seed=32))
    assert mcsim.estimate_mean_los_count(cfg, 50, 32) == (0.0, 0.0)


def test_simulate_ccdf_zero_threshold():
    cfg = make_config()
    dist = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, 500, np.array([0.0]), master_seed=36)
    assert dist.ccdf[0] == 1.0  # SINR is positive in every trial


def test_se_ccdf_shares_samples_with_sinr_ccdf():
    cfg = make_config()
    t_grid = np.array([0.0, 1.0, 3.0, 6.0])
    se_dist = mcsim.simulate_se_ccdf(mcsim.LOSBALL, cfg, 800, t_grid, master_seed=37)
    sinr_dist = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, 800,
                                    np.exp2(t_grid) - 1.0, master_seed=37)
    assert np.array_equal(se_dist.ccdf, sinr_dist.ccdf)
    assert np.array_equal(se_dist.thresholds, t_grid)


def test_trial_determinism_and_seed_sensitivity():
    cfg = make_config()
    a = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=38)
    b = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=38)
    assert np.array_equal(a, b)
    c = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 300, master_seed=39)
    assert not np.array_equal(a, c)
    # a longer run extends, never reshuffles, the trial sequence
    d = mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 400, master_seed=38)
    assert np.array_equal(d[:300], a)


def test_worker_split_invariance():
    # workers=0 (the CLI's --threads 0) is one process per os.cpu_count()
    cfg = make_config()
    serial = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 600, master_seed=40,
                                         workers=1)
    m1, s1 = mcsim.estimate_mean_los_count(cfg, 200, master_seed=41, workers=1)
    for workers in (3, 0):
        split = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, 600, master_seed=40,
                                            workers=workers)
        assert np.array_equal(serial, split)
        m3, s3 = mcsim.estimate_mean_los_count(cfg, 200, master_seed=41,
                                               workers=workers)
        assert m1 == m3 and s1 == s3


def test_estimate_ergodic_se_noise_only():
    # lambda = 0, m = 1 closed form exp(1/c) E1(1/c) / ln 2
    cfg = make_config(**{"lambda": 0.0})
    c = (cfg.tx_pattern.main_gain * cfg.rx_pattern.main_gain
         * cfg.ref_distance ** (-cfg.alpha_los) / cfg.noise_power)
    want = math.exp(1.0 / c) * special.exp1(1.0 / c) / math.log(2.0)
    mean, se = mcsim.estimate_ergodic_se(mcsim.FULL, cfg, 20000, master_seed=42)
    assert se < 0.05
    assert abs(mean - want) < 3.5 * se


def test_one_sample_has_no_standard_error():
    # one value gives a mean and an infinite standard error, not a NaN from
    # a variance over n - 1 = 0
    mean, se = mcsim.estimate_mean_los_count(make_config(), 1, master_seed=44)
    assert math.isfinite(mean) and se == math.inf
    samples = mcsim.simulate_sinr_samples(mcsim.LOSBALL, make_config(), 1,
                                          master_seed=44)
    assert samples.shape == (1, 2)
    mean, se = mcsim.mean_spectral_efficiency(samples)
    assert mean == math.log2(1.0 + samples[0, 0]) and se == math.inf


def test_mode_names_validated():
    cfg = make_config()
    with pytest.raises(ValueError):
        mcsim.simulate_sinr_samples("bogus", cfg, 10, master_seed=0)
    with pytest.raises(ValueError):
        mcsim.simulate_sinr_samples(mcsim.FULL, cfg, 0, master_seed=0)


def test_seed_and_trial_count_refused_before_work(monkeypatch):
    # every refusal is raised in the calling process before a pool exists:
    # a negative seed has no 32-bit words (its split would never end),
    # k >= 2**32 would wrap in the one-word trial index and reuse streams,
    # and a ConfigError raised in a worker cannot be sent back
    class NoPool:
        def __init__(self, *args, **kwargs):
            pytest.fail("a process pool started before the refusal")

    # _map_trials looks the pool up in concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    cfg = make_config()

    def sinr(n, seed, mode=mcsim.LOSBALL, config=cfg, workers=2):
        return mcsim.simulate_sinr_samples(mode, config, n, seed, workers)

    def count(n, seed, config=cfg, workers=2):
        return mcsim.estimate_mean_los_count(config, n, seed, workers)

    for run in (sinr, count):
        for n, seed in ((5, -1), (2 ** 32, 0), (2 ** 40, 0), (0, 0)):
            with pytest.raises(ValueError):
                run(n, seed)
        # a non-integral count or seed is refused by name, like a bad range,
        # and so is a bool, which Python would take as 0 or 1
        for n, seed, violation in ((5, 1.5, "SeedInvalid"),
                                   (2.5, 0, "TrialCountInvalid"),
                                   (True, 0, "TrialCountInvalid"),
                                   (np.True_, 0, "TrialCountInvalid"),
                                   (5, False, "SeedInvalid"),
                                   (5, np.False_, "SeedInvalid")):
            with pytest.raises(ConfigError) as err:
                run(n, seed)
            assert err.value.violation == violation
        # 0 means one worker per CPU; a negative count means nothing
        for workers in (-1, -3):
            with pytest.raises(ValueError):
                run(5, 0, workers=workers)
        for workers in (1.5, 2.0, "2", True, np.True_):
            with pytest.raises(ConfigError) as err:
                run(5, 0, workers=workers)
            assert err.value.violation == "WorkersInvalid"
        with pytest.raises(ConfigError) as err:
            run(5, 0, config=dataclasses.replace(cfg, density=-1.0))
        assert err.value.violation == "DensityNegative"
    with pytest.raises(ValueError):
        sinr(5, 0, mode="bogus")
    with pytest.raises(ConfigError) as err:
        sinr(5, 0, config=make_config(**{"lambda": 1e6}))
    assert err.value.violation == "DensityTooHigh"
    # numpy draws a Poisson count of about 3.2e18 centers at lambda = 1e16
    # but cannot allocate their (2, n) coordinates, and at 1e300 cannot draw
    # the count either: both refused by the one bound, before any draw
    for run in (partial(sinr, mode=mcsim.FULL), count):
        for density in (1e16, 1e300):
            with pytest.raises(ConfigError) as err:
                run(1, 0, config=make_config(**{"lambda": density}))
            assert err.value.violation == "DensityTooHigh"
            assert "hold" in str(err.value)

    monkeypatch.undo()
    for run in (sinr, count):
        assert np.all(np.isfinite(run(3, np.uint64(2 ** 64 - 1))))


@pytest.mark.parametrize("error, text, attrs", [
    (ConfigError("DensityTooHigh", "the mean NLOS power diverges"),
     "DensityTooHigh: the mean NLOS power diverges", ("violation",)),
    (QuadratureNotConverged("no convergence after 4097 panels", 0.5, 1e-3, 7),
     "no convergence after 4097 panels", ("value", "error_estimate", "index")),
    (experiments.ToleranceExceeded("sup-norm 0.07 vs tolerance 0.05", 0.07, 0.05),
     "sup-norm 0.07 vs tolerance 0.05", ("measure", "tolerance")),
], ids=["ConfigError", "QuadratureNotConverged", "ToleranceExceeded"])
def test_errors_survive_pickling(error, text, attrs):
    # an error raised in a pool worker reaches the caller by pickle; one
    # that cannot be rebuilt there turns into a BrokenProcessPool.  The
    # text is what the command line prints after "error: "
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(error) == str(back) == text
    assert all(getattr(back, a) == getattr(error, a) for a in attrs)


def test_substreams_match_numpy_constructors():
    # every state set in bulk equals the one numpy's own SeedSequence and
    # PCG64 constructors give, at state-block edges (where a chunk of
    # zero-link trials is flushed too), across a block edge of a range that
    # starts inside a block, and at the largest k
    block = mcsim._STATES
    ks = (0, 1, block // 2, block - 1, block, block + 1, 2 * block - 1, 2 * block + 1)
    # seeds of four or more words run the hash's mixing loop over the
    # entropy beyond its pool of four
    for seed in (0, 1, 104, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3, 2**96,
                 2**200 + 12345):
        got = {k: (rng.bit_generator.state, rng.random(4))
               for k, rng in enumerate(mcsim._substreams(seed, 0, max(ks) + 1))
               if k in ks}
        for lo, hi in ((block - 2, block + 2), (2**32 - 1, 2**32)):
            for k, rng in enumerate(mcsim._substreams(seed, lo, hi), lo):
                got[k] = (rng.bit_generator.state, rng.random(4))
        assert sorted(got) == sorted(set(ks) | {block - 2, block + 1, 2**32 - 1})
        for k, (state, first) in got.items():
            want = oracles.substream(seed, k)
            assert state == want.bit_generator.state, (seed, k)
            assert np.array_equal(first, want.random(4)), (seed, k)


def _rows(state, inc):
    # one row of state words, the halves in the order _word_order found
    row = np.empty(4, dtype=np.uint64)
    for column, half in zip(mcsim._word_order(),
                            (state >> 64, state & 2**64 - 1, inc >> 64, inc & 2**64 - 1)):
        row[column] = half
    return row


@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, 2**128 - 1), inc=st.integers(0, 2**127 - 1).map(lambda i: 2 * i + 1),
       uinteger=st.integers(0, 2**32 - 1))
def test_state_words_written_as_the_setter_sets_them(state, inc, uinteger):
    # written over a generator holding a buffered uint32, the words read
    # back through the public getter as the dict the setter was given
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {**bit_generator.state, "has_uint32": 1, "uinteger": uinteger}
    words, write = mcsim._state_words(bit_generator)
    write(_rows(state, inc))
    assert bit_generator.state == {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
    assert words.tolist() == _rows(state, inc).tolist()


def test_state_words_clear_the_buffered_uint32():
    # a uint32 draw buffers the other half of its 64-bit draw; trial k's
    # words written after it must leave nothing of it, so the next uint32
    # and double draws are those of trial k's own generator
    rng = np.random.Generator(np.random.PCG64(0))
    _, write = mcsim._state_words(rng.bit_generator)
    for seed, k in ((0, 0), (104, 5), (2**64 + 5, 4097)):
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        write(mcsim._pcg64_states(mcsim._seed_words(seed), k, k + 1)[0])
        want = oracles.substream(seed, k)
        for draw in (lambda g: g.integers(0, 2**32, dtype=np.uint32),
                     lambda g: g.integers(0, 2**32, dtype=np.uint32), lambda g: g.random()):
            assert draw(rng) == draw(want), (seed, k)


def test_state_words_keep_their_generator_alive():
    # the view is the only reference left to its bit generator, whose
    # memory must stay valid (and keep its state) while the view lives
    words, write = mcsim._state_words(np.random.PCG64(7))
    want = np.random.PCG64(7).state["state"]
    np.random.PCG64(8)  # would reuse freed memory
    assert words.tolist() == _rows(want["state"], want["inc"]).tolist()
    write(_rows(1, 3))
    assert words.tolist() == _rows(1, 3).tolist()


def test_unknown_state_layout_refused_by_name(monkeypatch):
    # a PCG64 whose state setter does not put the known halves where they
    # are looked up is refused by name, with no other way to set a state
    class Deaf(np.random.PCG64):
        @property
        def state(self):
            return super().state

        @state.setter
        def state(self, value):
            pass

    monkeypatch.setattr(np.random, "PCG64", Deaf)
    mcsim._word_order.cache_clear()
    try:
        with pytest.raises(mcsim.StateLayoutUnknown):
            mcsim._word_order()
        with pytest.raises(mcsim.StateLayoutUnknown):
            next(mcsim._substreams(0, 0, 1))
    finally:
        monkeypatch.undo()
        mcsim._word_order.cache_clear()
    assert mcsim._word_order() in {(1, 0, 3, 2), (0, 1, 2, 3)}


def test_per_count_sums_match_per_trial_reduces():
    # _interference sums the trials of one link count as the rows of one
    # block; each row must be the np.add.reduce of that trial's own links,
    # for zero-link trials, for counts on both sides of numpy's 8- and
    # 128-element pairwise blocks, and with counts shared and shuffled
    cfg = make_config(power_ratio=2.5)
    rng = np.random.default_rng(47)
    counts = list(range(301)) + [513, 1000, 1025]
    sizes = rng.permutation(counts * 2 + [0] * 5 + [3] * 40)
    n = int(sizes.sum())
    r, phi, u, h = 0.25 + 10.0 * rng.random(n), 6.3 * rng.random(n), rng.random(n), rng.random(n)
    # a 2-d h holds one row of fading per Nakagami order; each row's sums
    # are those of that row alone
    ends = np.cumsum(sizes)
    orders = np.stack((h, rng.random(n), h[::-1]))
    for los in (None, rng.random(n) < 0.4):
        want = []
        for row in orders:
            power = np.multiply(*mcsim._gains(cfg, u, phi)) * row
            power *= r ** -(cfg.alpha_los if los is None
                            else np.where(los, cfg.alpha_los, cfg.alpha_nlos))
            want.append(cfg.power_ratio * np.array(
                [np.add.reduce(power[b - k:b]) for b, k in zip(ends, sizes)]))
        # the fading columns are overwritten with the link powers
        got = mcsim._interference(cfg, sizes.tolist(), r, phi, u, h.copy(), los)
        assert np.array_equal(got, want[0])
        got = mcsim._interference(cfg, sizes.tolist(), r, phi, u, orders.copy(), los)
        assert got.shape == (3, sizes.size) and np.array_equal(got, want)


def test_losball_engine_matches_trial_loop_at_high_order(monkeypatch):
    # fig8 at m = 16: the gamma sampler's per-value rejection loop makes a
    # trial's draws longest, across flushes (a 4096-link budget closes a
    # chunk after about 140 trials of about 29 links) and worker splits
    monkeypatch.setattr(mcsim, "_LINKS", 4096)
    cfg = figure_config("fig8", m=16)
    n = 515
    want = oracles.sinr_samples(mcsim.LOSBALL, cfg, 0, n, 106)
    assert np.array_equal(mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, n, 106), want)
    assert np.array_equal(
        mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, n, 106, workers=3), want)


@pytest.mark.parametrize("mode", [mcsim.FULL, mcsim.LOSBALL])
def test_zero_denominator_sinr(mode):
    # no noise and no interference (a silent network, or no interferer at
    # all) leave SINR = +inf on purpose, without a divide-by-zero warning,
    # which this suite turns into an error; the mean rate does not exist
    # and is refused by name rather than returned as (inf, nan)
    for overrides in ({"p_t": 0.0}, {"lambda": 0.0}):
        cfg = make_config(noise_power=0.0, **overrides)
        samples = mcsim.simulate_sinr_samples(mode, cfg, 30, 48)
        assert np.all(np.isposinf(samples[:, 0])) and np.all(samples[:, 1] == 0.0)
        with pytest.raises(ConfigError) as err:
            mcsim.estimate_ergodic_se(mode, cfg, 30, 48)
        assert err.value.violation == "SinrUnbounded"
        assert str(err.value).startswith("SinrUnbounded: 30 of 30 trials")
    # interference in every trial keeps the noiseless rate finite
    cfg = make_config(noise_power=0.0, **{"lambda": 30.0})
    mean, se = mcsim.estimate_ergodic_se(mode, cfg, 30, 48)
    assert math.isfinite(mean) and math.isfinite(se)


@pytest.mark.parametrize("mode", [mcsim.FULL, mcsim.LOSBALL])
@pytest.mark.parametrize("overrides", [{"R0": 1e-100},
                                       {"noise_power": 1e-310, "lambda": 0.0}],
                         ids=["reference-power", "quotient"])
def test_overflowing_snr_is_plus_inf(mode, overrides):
    # fig8 with R0 = 1e-100 puts Gt Gr R0^-alpha_L past the float range,
    # where Python's float power raised OverflowError inside the trial
    # range; noise_power = 1e-310 overflows the quotient, where numpy
    # warned (an error under this suite).  Both are SINR = +inf, covered
    # at every finite threshold, and the mean rate is refused by name
    cfg = figure_config("fig8", **overrides)
    samples = mcsim.simulate_sinr_samples(mode, cfg, 30, 48)
    assert np.all(np.isposinf(samples[:, 0]))
    assert np.all(mcsim.simulate_ccdf(mode, cfg, 30, [0.0, 1e300], 48).ccdf == 1.0)
    with pytest.raises(ConfigError) as err:
        mcsim.estimate_ergodic_se(mode, cfg, 30, 48)
    assert err.value.violation == "SinrUnbounded"
    assert str(err.value).startswith("SinrUnbounded: 30 of 30 trials")


@pytest.mark.parametrize("mode, orders", [
    pytest.param(mcsim.FULL, {}, id="full"),
    pytest.param(mcsim.LOSBALL, {}, id="losball"),
    pytest.param(mcsim.FULL, {"m": 3, "m_nlos": 2}, id="full-m3-mnlos2"),
])
def test_chunked_engine_matches_trial_loop(monkeypatch, mode, orders):
    # a 4096-link budget gives two full LOSBALL chunks of about 220 trials
    # and a partial one, and FULL chunks of about 5 fields, serial and
    # split at 171 and 343.  With m != m_nlos a FULL trial's fading depends
    # on its LOS count, so the chunk's classification must come between its
    # draws and its fading, from each trial's saved substream state
    monkeypatch.setattr(mcsim, "_LINKS", 4096)
    cfg = make_config(**orders)
    n = 515
    want = oracles.sinr_samples(mode, cfg, 0, n, 44)
    assert np.array_equal(mcsim.simulate_sinr_samples(mode, cfg, n, 44), want)
    assert np.array_equal(
        mcsim.simulate_sinr_samples(mode, cfg, n, 44, workers=3), want)


@pytest.mark.parametrize("mode", [mcsim.FULL, mcsim.LOSBALL])
def test_order_sweep_matches_one_order_runs(monkeypatch, mode):
    # each order's samples are bit for bit those of a one-order run at that
    # order, serial and on two workers.  A 4-link budget and 8-trial state
    # blocks flush chunks often; a fig8 trial (about 29 LOSBALL links of 8
    # values at five orders) overruns the whole 16 + 5 x 8 value buffer.
    # The orders repeat one (a grid may hold equal neighbours) and reach
    # 64, and m_nlos = 2 makes a FULL trial's NLOS draws follow its LOS ones
    monkeypatch.setattr(mcsim, "_LINKS", 4)
    monkeypatch.setattr(mcsim, "_STATES", 8)
    grows = []
    grow = mcsim._grow

    def recording_grow(buf, used, need):
        grows.append(need)
        return grow(buf, used, need)

    monkeypatch.setattr(mcsim, "_grow", recording_grow)
    cfg = figure_config("fig8", m_nlos=2)
    orders = (1, 2, 2, 16, 64)
    n = 37
    want = [mcsim.simulate_sinr_samples(mode, dataclasses.replace(cfg, m_los=m), n, 50)
            for m in orders]
    grows.clear()
    for workers in (1, 2):
        sweep = mcsim.simulate_order_sweep(mode, cfg, orders, n, 50, workers)
        assert len(sweep) == len(orders)
        for got, one in zip(sweep, want):
            assert np.array_equal(got, one)
    assert bool(grows) == (mode == mcsim.LOSBALL)


@pytest.mark.parametrize("orders, violation", [
    ((1, 65), "NakagamiOrderTooLarge"),
    ((2, 0), "NakagamiOrderInvalid"),
    ((1, 2.5), "NakagamiOrderInvalid"),
    ((1, True), "NakagamiOrderInvalid"),
    ((), "EmptySweepGrid"),
], ids=["too-large", "zero", "fractional", "bool", "empty"])
def test_order_sweep_refuses_bad_order_before_any_worker(monkeypatch, orders, violation):
    class NoPool:
        def __init__(self, *args, **kwargs):
            pytest.fail("a process pool started before the refusal")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        with pytest.raises(ConfigError) as err:
            mcsim.simulate_order_sweep(mode, make_config(), orders, 10, 0, workers=2)
        assert err.value.violation == violation


@pytest.mark.parametrize("density", [3.0, 0.0064])
def test_link_budget_flush_matches_trial_loop(monkeypatch, density):
    # a budget of 5 links closes chunks mid-block, in both modes: after
    # every trial at lambda = 3 (about 940 full-mode links each, about 19
    # in the ball), after a few at 0.0064.  Each chunk closes at the first
    # trial that brings it to the budget, the last one at the range's end
    chunks = []
    interference = mcsim._interference

    def recording(cfg, trial_sizes, *columns):
        chunks.append(list(trial_sizes))
        return interference(cfg, trial_sizes, *columns)

    monkeypatch.setattr(mcsim, "_LINKS", 5)
    monkeypatch.setattr(mcsim, "_interference", recording)
    cfg = make_config(**{"lambda": density})
    n = 263
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        chunks.clear()
        assert np.array_equal(mcsim.simulate_sinr_samples(mode, cfg, n, 45),
                              oracles.sinr_samples(mode, cfg, 0, n, 45))
        assert sum(map(len, chunks)) == n
        assert all(sum(sizes[:-1]) < 5 for sizes in chunks)
        assert all(sum(sizes) >= 5 for sizes in chunks[:-1])
        assert (max(map(len, chunks)) > 1) == (density < 1.0), mode


@pytest.mark.parametrize("density, n", [(0.5, 400), (5.0, 40)])
def test_fading_scatter_matches_trial_loop(monkeypatch, density, n):
    # a FULL chunk's LOS and NLOS fading are scattered chunk-wide, each
    # trial's drawn from its restored state with its LOS count read off one
    # cumsum of the chunk's mask; over four link-budget flushes, with
    # fields whose LOS count is 0 (at lambda = 5 about 30% have a body
    # over the receiver) and m != m_nlos, so a wrong count moves the draws
    cfg = make_config(m=3, m_nlos=2, **{"lambda": density})
    want = oracles.sinr_samples(mcsim.FULL, cfg, 0, n, 47)
    chunks = []
    classify = mcsim.classify_los

    def recording(r, phi, d, psi, W, link_counts, body_counts):
        los = classify(r, phi, d, psi, W, link_counts, body_counts)
        fields = np.split(los, np.cumsum(link_counts)[:-1])
        chunks.append([int(np.count_nonzero(field)) for field in fields])
        return los

    monkeypatch.setattr(mcsim, "classify_los", recording)
    assert np.array_equal(mcsim.simulate_sinr_samples(mcsim.FULL, cfg, n, 47), want)
    counts = sum(chunks, [])
    assert len(chunks) >= 4 and len(counts) == n
    assert 0 in counts and max(counts) > 0


def test_wrap_matches_mod():
    # the receiver-angle wrap of _gains is np.mod(phi + pi, 2 pi) - pi bit
    # for bit, sign of zero included, at the edge angles and on a sample
    two_pi = 2.0 * math.pi
    edges = [0.0, np.nextafter(math.pi, 0.0), math.pi, np.nextafter(two_pi, 0.0),
             two_pi, 6.3]
    phi = np.concatenate((edges, oracles.substream(3, 0).random(10000) * two_pi))
    got, want = mcsim._wrap(phi), np.mod(phi + math.pi, two_pi) - math.pi
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [0, 1, 19, 1000])
def test_block_draw_equals_successive_draws(n):
    # a trial draws its k rows of uniforms as one (k, n) block: numpy fills
    # it in C order, so it holds k successive draws of n and leaves the
    # substream where they would
    for k in (1, 2, 3):
        block_rng, rows_rng = oracles.substream(104, n), oracles.substream(104, n)
        block = block_rng.random((k, n))
        assert block.shape == (k, n)
        for row in block:
            assert np.array_equal(row, rows_rng.random(n))
        assert block_rng.bit_generator.state == rows_rng.bit_generator.state


def test_disk_polar_of_chunk_equals_per_trial_transforms():
    # both modes transform a chunk's concatenated blocks in one call; each
    # trial's points are those of its own transform, bit for bit
    rng = oracles.substream(1, 0)
    radius = losball.los_ball_radius(3.0, 0.3, 10.0)
    blocks = [rng.random((3, n)) for n in (0, 5, 19, 0, 40, 1, 2048)]
    x = np.concatenate(blocks, axis=1)
    u = x.copy()
    r, phi = geometry.disk_polar(radius, x)
    # written over the block's own radius and angle rows, which are
    # returned: the transform adds no chunk-sized array
    assert r.base is x and phi.base is x
    assert np.array_equal(x[2], u[2])
    assert r.tobytes() == np.sqrt(radius * radius * u[0]).tobytes()
    assert phi.tobytes() == (u[1] * (2.0 * math.pi)).tobytes()
    want_r, want_phi = zip(*(geometry.disk_polar(radius, b) for b in blocks))
    assert np.array_equal(r, np.concatenate(want_r))
    assert np.array_equal(phi, np.concatenate(want_phi))


@pytest.mark.parametrize("links", [pytest.param(mcsim._LINKS, id="default"), 1])
@pytest.mark.parametrize("overrides, n", [({"lambda": 0.002}, mcsim._STATES + 9),
                                          ({"p_t": 0.0}, 265)],
                         ids=["sparse", "silent"])
def test_zero_link_trials_cross_flushes(monkeypatch, links, overrides, n):
    # trials with no link (or no active one) at budget edges, and sparse
    # fields (about 0.6 links each) across the state-block edge, where the
    # default budget's chunk closes
    monkeypatch.setattr(mcsim, "_LINKS", links)
    for mode in (mcsim.FULL, mcsim.LOSBALL):
        cfg = figure_config("fig7", **overrides)
        got = mcsim.simulate_sinr_samples(mode, cfg, n, 46)
        assert np.array_equal(got, oracles.sinr_samples(mode, cfg, 0, n, 46))
        assert np.any(got[:, 1] == 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("n", [0, 1, 19])
def test_nakagami_draw_is_scaled_standard_gamma(m, n):
    # a LOSBALL trial draws standard gamma values into its chunk's buffer,
    # scaled by 1/m once per chunk: numpy's gamma(m, 1/m) is that product,
    # value by value and bit for bit, and leaves the stream in one place
    gamma_rng, standard_rng = oracles.substream(106, n), oracles.substream(106, n)
    buf = np.full(n + 2, np.nan)
    standard_rng.standard_gamma(m, out=buf[1:n + 1])
    want = mcsim.sample_nakagami_power(m, gamma_rng, n)
    assert want.tobytes() == (buf[1:n + 1] * (1.0 / m)).tobytes()
    assert np.isnan(buf[0]) and np.isnan(buf[-1])
    assert gamma_rng.random() == standard_rng.random()


@pytest.mark.parametrize("n", [0, 1, 19, 1000])
def test_flat_uniform_draw_equals_block_draw(n):
    # a LOSBALL trial draws its 3 x n uniforms into a slice of its chunk's
    # buffer: they are the values of rng.random((3, n)) in C order, and the
    # stream goes on from the same place
    block_rng, flat_rng = oracles.substream(104, n), oracles.substream(104, n)
    buf = np.full(3 * n + 2, np.nan)
    flat_rng.random(out=buf[1:3 * n + 1])
    assert block_rng.random((3, n)).ravel().tobytes() == buf[1:3 * n + 1].tobytes()
    assert np.isnan(buf[0]) and np.isnan(buf[-1])
    assert block_rng.random() == flat_rng.random()


def test_losball_buffer_growth_matches_trial_loop(monkeypatch):
    # a chunk buffer of 4 _LINKS + _STATES = 24 values: at fig7's density
    # (about 18.8 links a trial) one trial's 4n + 1 values overrun the whole
    # buffer, which grows; at lambda = 0.01 (about 3.1) a trial overruns
    # the trials before it in its chunk, whose values the grown buffer
    # keeps; at 0.002 (about 0.63) most trials have no link, and chunks
    # close at 8 trials, with zero-link trials at their edges
    monkeypatch.setattr(mcsim, "_LINKS", 4)
    monkeypatch.setattr(mcsim, "_STATES", 8)
    grows, chunks = [], []
    grow, interference = mcsim._grow, mcsim._interference

    def recording_grow(buf, used, need):
        grows.append((buf.size, used, need))
        return grow(buf, used, need)

    def recording_interference(cfg, trial_sizes, *columns):
        chunks.append(list(trial_sizes))
        return interference(cfg, trial_sizes, *columns)

    monkeypatch.setattr(mcsim, "_grow", recording_grow)
    monkeypatch.setattr(mcsim, "_interference", recording_interference)
    n = 300
    for overrides in ({}, {"lambda": 0.01}, {"lambda": 0.002}):
        cfg = figure_config("fig7", **overrides)
        chunks.clear()
        got = mcsim.simulate_sinr_samples(mcsim.LOSBALL, cfg, n, 49)
        assert np.array_equal(got, oracles.sinr_samples(mcsim.LOSBALL, cfg, 0, n, 49))
        assert sum(map(len, chunks)) == n
    assert any(size == 24 and used == 0 and need > 24 for size, used, need in grows)
    assert any(used > 0 for _, used, _ in grows)
    closed_by_states = [sizes for sizes in chunks if len(sizes) == 8 and sum(sizes) < 4]
    assert closed_by_states
    assert any(sizes[0] == 0 and sizes[-1] == 0 for sizes in closed_by_states)


def test_full_mode_blockage_lowers_interference():
    # body blockage removes LOS interferers, so FULL-mode aggregate
    # interference is stochastically below the all-LOS ball would suggest;
    # compare mean LOS counts instead of raw power: geometric count in FULL
    # trials must track the thinned mean, far below the unthinned disk count
    cfg = make_config()
    mean, se = mcsim.estimate_mean_los_count(cfg, 1500, master_seed=43)
    unthinned = cfg.density * math.pi * cfg.net_radius**2
    assert mean + 5.0 * se < unthinned
