"""Seeded Monte Carlo engine with two fidelity modes.

FULL mode samples the physical model: interferers on the network disk,
blockage centers on the disk of radius r_net + W/2, exact geometric LOS
classification, Nakagami fading of order m on LOS links and m_nlos on
blocked ones, and the sectorized-antenna activity marks.  The reference
link is always LOS by assumption.

LOSBALL mode samples the reduced model behind the closed forms: interferers
only inside the equivalent LOS ball, all unblocked, with the mean power of
everything outside the ball added to the denominator as a constant.

Reproducibility: trial k of a run with master seed s draws from a PCG64
generator seeded with SeedSequence((s, k)).  That per-trial substream rule
makes results independent of how trials are split across workers; counts
and exactly rounded sums (math.fsum) make the aggregation order-insensitive.
The substream states are computed in bulk, _STATES trials at a time, by
numpy's own SeedSequence hash (on uint32 arrays) and PCG64 seeding rule
(its 128-bit LCG steps on pairs of uint64 arrays), as one row of four
uint64 words per trial, the halves of the 128-bit state and increment.  A
trial's row is written in turn into one reused generator's state memory,
through numpy's bit_generator.ctypes.state, in the word order numpy's own
state setter was seen to use (once per process), with the buffered uint32
cleared, so the generator is left as that setter leaves it; a test checks
the states against numpy's constructors.

Per-trial draw order (fixed, part of the reproducibility contract):
interferer PPP, blockage PPP (FULL only), activity uniforms, LOS fading,
NLOS fading (FULL only), reference fading.  A PPP is its Poisson count,
then its radius and angle uniforms.  Uniforms drawn back to back are one
block: rng.random((k, n)) fills in C order, so it holds the values of k
successive draws of n.  In LOSBALL a trial's radius, angle and activity
uniforms are one draw of 3n values, those of rng.random((3, n)) in C
order, and its link fading and reference fading one draw of n + 1 standard
gamma values, the reference last; numpy's samplers fill element by
element, so the values are those of separate draws.

A run may serve several LOS Nakagami orders at once (simulate_order_sweep).
Nothing before the fading depends on the order, so a trial draws its
deployment and activity uniforms once.  With one order it draws its
fading right after them, as above; only with more orders does it save a
copy of the generator's four state words there, and each order in turn
writes that state back and draws its own fading from it (in FULL, the
second pass below does this from the state it saves anyway).  Trial k of
order m thus draws exactly what a one-order run with m_los = m draws, and
every order sees the same deployments.

One flat loop sets each trial's state and draws; only RNG calls run trial
by trial: in LOSBALL the count, the uniforms and the fading, in FULL the
calls the two passes below make, nothing else.  A LOSBALL trial draws its
uniforms and fading straight into one buffer that the chunk owns, trial
after trial, with rng.random(out=...) and rng.standard_gamma(m, out=...);
a trial that overruns the buffer grows it.  The chunk's flush reads the
radius, angle, activity and each order's fading rows out of it through
one gather index and each order's h0 from its last value, and scales each
order's fading by 1/m once: numpy's gamma(m, 1/m), sample_nakagami_power's
law, is 1/m times the standard gamma value, value by value, so the bits
are those of sample_nakagami_power's draws.  The disk transform, the
marks' gains, the path loss and the grouping of trials by link count run
once per chunk, the products ((tx rx) h) path and the sums once per order.

A chunk's budget is in buffered values: with K orders it holds 3 + K
values per link (radius, angle, activity and one fading value per order),
and it closes once links times 3 + K reaches 4 _LINKS, what a one-order
chunk holds at _LINKS links, or once it holds _STATES trials, whichever
comes first.  So a one-order chunk closes at _LINKS links, and a
five-order chunk at half that, with no more memory.  A trial's
interference is the np.add.reduce of its own links, the pairwise order
np.sum uses: the chunk's trials of one link count are summed by one reduce
along the rows of a block that holds one trial per row, which adds each
row as its own 1-D reduce does, so every value is the one a trial-by-trial
loop gives.

A FULL trial's fading draws need its LOS count, so its draws come in two
passes around one classify_los call for the whole chunk.  The first pass
sets each trial's substream, draws its two PPPs' counts and uniform blocks
(the one deployment draw, geometry.draw_ppp, on each of _field_disks'
disks) and its activity uniforms, and saves a copy of the generator's four
state words; the chunk's blocks are then transformed to points, one
disk_polar call per PPP, and its fields classified at once.  The second
pass, for each order in turn, writes each saved state back into the same
generator and draws the LOS fading, the NLOS fading and the reference
fading, with each trial's LOS count read off one cumsum of the chunk's
mask; the chunk's LOS and NLOS draws are then scattered onto its links by
two boolean assignments, which fill them in trial order.  The first pass
draws no uint32, so its buffered uint32 stays cleared, and a restored
state continues the stream exactly where the first pass left it: the
draws and their order are those of a trial-by-trial loop.  The loop writes
a full state before each next trial, so the second pass leaves nothing
behind in the generator.

Every refusal of an input comes before any worker starts: an unknown
mode, a sweep's empty or bad order list, a config whose run constants do
not exist (DensityTooHigh) and the run counts that check_run refuses are
raised in the calling process, so
a run split across workers fails exactly as a serial run does; a config
itself is valid once it exists (model.NetworkConfig).  The trial ranges
themselves raise nothing; a NaN SINR among their samples is refused once,
after the run (SampleNaN).
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .analytic import coverage_params, signal_power
# the LOSBALL test oracle and the benchmark's tracer look sample_ppp_disk
# up under this module
from .geometry import classify_los, disk_polar, draw_ppp, ppp_mean, sample_ppp_disk
from .model import ConfigError, check_grid, rate_to_sinr

FULL = "full"
LOSBALL = "losball"


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Exceedance estimates P(value > threshold) on a sorted grid.

    stderr is the pointwise binomial standard error sqrt(p(1-p)/n).
    """

    thresholds: np.ndarray
    ccdf: np.ndarray
    n_trials: int
    stderr: np.ndarray

    @property
    def cdf(self):
        return 1.0 - self.ccdf


def sample_nakagami_power(m, rng, size=None):
    """Unit-mean Nakagami-m power gain: Gamma with shape m, scale 1/m.
    ValueError unless 1 <= m < inf (a NaN is refused too)."""
    if not 1 <= m < math.inf:
        raise ValueError(f"Nakagami shape must lie in [1, inf), got {m}")
    return rng.gamma(m, 1.0 / m, size)


def _field_disks(cfg):
    """The radii of a FULL-mode deployment's two disks: interferers on the
    network disk, then blockage centers on the disk of radius r_net + W/2,
    so no edge interferer's blocking region is truncated.

    ConfigError DensityTooHigh unless one numpy array can hold the (2, n)
    float64 coordinates at the larger Poisson mean, the blockage disk's;
    numpy's Poisson sampler takes every mean below that bound.
    """
    radii = (cfg.net_radius, cfg.net_radius + 0.5 * cfg.blockage_diameter)
    mean = ppp_mean(cfg.density, radii[1])
    if 16.0 * mean > np.iinfo(np.intp).max:
        raise ConfigError("DensityTooHigh",
                          f"density {cfg.density} puts a Poisson mean of {mean:.3g} "
                          f"blockage centers on the deployment disk, more "
                          f"coordinates than one numpy array can hold")
    return radii


def sample_full_field(cfg, rng):
    """One FULL-mode deployment: (r, phi, los mask), the interferers and
    then the blockage centers drawn by draw_ppp on _field_disks' disks."""
    (r, phi), (d, psi) = (disk_polar(radius, draw_ppp(ppp_mean(cfg.density, radius), rng))
                          for radius in _field_disks(cfg))
    return r, phi, classify_los(r, phi, d, psi, cfg.blockage_diameter)


def _gains(cfg, u, phi):
    """Transmit gain from the activity uniforms u and receiver-side gain
    from the angles phi, per interferer.

    The transmit mark is the categorical variable: 0 with probability
    1 - p_t, main-lobe gain with p_t * theta_t/2pi, side-lobe gain
    otherwise.  The receiver sees its main lobe iff the interferer angle
    falls in the closed wedge of width theta_r around the pointing
    direction, fixed at 0 without loss of generality.
    """
    at = cfg.tx_pattern.main_lobe_fraction
    tx_gain = np.where(u < cfg.tx_probability * at,
                       cfg.tx_pattern.main_gain,
                       np.where(u < cfg.tx_probability,
                                cfg.tx_pattern.side_gain, 0.0))
    rx_gain = np.where(np.abs(_wrap(phi)) <= 0.5 * cfg.rx_pattern.beamwidth,
                       cfg.rx_pattern.main_gain, cfg.rx_pattern.side_gain)
    return tx_gain, rx_gain


def _wrap(phi):
    """np.mod(phi + pi, 2 pi) - pi, bit for bit, for angles phi in
    [0, 2 pi] as both samplers give them: x = phi + pi lies in [pi, 4 pi),
    where x - 2 pi for x >= 2 pi is exact (Sterbenz) and is what fmod
    gives, and x - 0 is x."""
    x = phi + math.pi
    x -= np.where(x >= 2.0 * math.pi, 2.0 * math.pi, 0.0)
    x -= math.pi
    return x


def _interference(cfg, sizes, r, phi, u, h, los):
    """Aggregate interference power of each trial of a chunk, for each row
    of fading powers.

    The columns hold the chunk's links trial after trial, sizes[j] of them
    for trial j: link radii and angles, activity uniforms and the LOS mask,
    and in h the fading powers, one row per Nakagami order (a 1-d h is one
    row), which the chunk owns: they are overwritten with the link powers.
    Path loss is r^-alpha_L on LOS links and r^-alpha_N on the others;
    ``los`` None (LOSBALL) means every link is LOS.  Returns one sum per
    trial for each row of h, in h's shape but for its last axis.
    """
    # tx * rx * h * path, rounded left to right, in place in h to hold no
    # chunk-sized temporary per order: the gains and the path loss once for
    # the chunk, the products once for each row of h.  One power per link,
    # with the exponent that applies to it; pow is elementwise, so each
    # value is the one a scalar exponent gives
    alpha = cfg.alpha_los if los is None else np.where(los, cfg.alpha_los, cfg.alpha_nlos)
    gain, rx_gain = _gains(cfg, u, phi)
    gain *= rx_gain
    power = h
    power *= gain
    power *= r ** -alpha
    # np.sum's pairwise order, trial by trial, with one reduce per link
    # count and row of h: the trials of a count are gathered as the rows of
    # one C-contiguous block, and a reduce along its rows sums each row as
    # its own 1-D reduce would.  reduceat or bincount would add in another
    # order and move the last bits
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(sizes, kind="stable")
    counts = sizes[order]
    cuts = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), sizes.size]
    sums = np.zeros(h.shape[:-1] + sizes.shape)
    rows = list(zip(np.atleast_2d(power), np.atleast_2d(sums)))
    for a, b in zip(cuts, cuts[1:]):
        trials = order[a:b]
        index = starts[trials, None] + np.arange(counts[a])
        for row, total in rows:
            total[trials] = np.add.reduce(row[index], axis=1)
    return cfg.power_ratio * sums


# --- per-trial substreams -------------------------------------------------

# Trials per block of substream states, and the most a chunk buffers: a
# run of zero-link trials (a sparse or empty field) closes a chunk here.
_STATES = 4096
# Buffered links that close a one-order chunk; with K orders a chunk closes
# at 4 _LINKS / (3 + K) links, the same number of buffered values.
# A FULL chunk is classified in one classify_los call, whose fixed cost
# (about 0.35 ms) is paid per call against about 0.25 ms per fig6 field of
# about 950 links, so the budget holds about 17 such fields, and a fig7
# LOSBALL chunk about 880 trials of about 18.5 links.  It also bounds a
# chunk's memory: on a 2-CPU x86-64 host bench/run.py's runs peak at about
# 41.6 MB RSS (coverage_fig7), 41.4 MB (nakagami_fig8) and 43.1 MB (se_fig6,
# its FULL chunks).
_LINKS = 16384

# The trial index k enters numpy's seed hash as one 32-bit word.
MAX_TRIALS = 2 ** 32

# numpy's SeedSequence is O'Neill's seed_seq hash on 32-bit words; these are
# its constants, then PCG64's 128-bit LCG multiplier and the mask of one
# 64-bit half of its state.  They stay Python ints: numpy uint32 scalars
# warn on overflow.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MIX_ENTROPY = (0x43B0D7E5, 0x931E8875)     # INIT_A, MULT_A
_GENERATE_STATE = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & ((1 << 64) - 1)


def _seed_words(seed):
    """32-bit words of a non-negative int, least significant first, as
    SeedSequence coerces it (0 is one word)."""
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _hasher(const, mult):
    """seed_seq's hashmix over uint32 arrays, with its running multiplier."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pcg64_states(words, lo, hi):
    """The states of PCG64(SeedSequence((s, k))) for k in [lo, hi), with
    words = _seed_words(s), hi <= MAX_TRIALS, as an (hi - lo, 4) uint64
    block of state words (see _state_words); the hash runs on uint32 arrays
    over k, the 128-bit seeding step on the uint64 arrays of its halves."""
    n = hi - lo
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(lo, hi, dtype=np.int64).astype(np.uint32))
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(*_MIX_ENTROPY)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # low word first into four uint64s, which are initstate's high and low
    # halves, then initseq's
    hashmix = _hasher(*_GENERATE_STATE)
    w = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
    # PCG64's set_seed: inc = 2 initseq + 1 (shifted across the two halves,
    # which drops its top bit), then two LCG steps around adding initstate,
    # state = (initstate + inc) * mult + inc mod 2**128, on 64-bit halves
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    state = _add128(*_mul128(*_add128(seed_hi, seed_lo, inc_hi, inc_lo)), inc_hi, inc_lo)
    rows = np.empty((n, 4), dtype=np.uint64)
    for column, half in zip(_word_order(), (*state, inc_hi, inc_lo)):
        rows[:, column] = half
    return rows


# uint64 arithmetic wraps mod 2**64, without a warning on arrays; a 128-bit
# number is its (high, low) pair of uint64 arrays

def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128; the low words carry when their sum wraps."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _mul128(a_hi, a_lo):
    """(a * _PCG64_MULT) mod 2**128.  The high word is the high half of
    a_lo times the multiplier's low word, from 32-bit limbs whose products
    fit in 64 bits, plus the two cross products mod 2**64."""
    x0, x1 = a_lo & _M32, a_lo >> 32
    y0, y1 = _MULT_LO & _M32, _MULT_LO >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _M32) + (p10 & _M32)
    mulhi = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return mulhi + a_lo * _MULT_HI + a_hi * _MULT_LO, a_lo * _MULT_LO


class StateLayoutUnknown(RuntimeError):
    """numpy's PCG64 does not keep its state where _state_words writes it."""


class _PCG64State(ctypes.Structure):
    """numpy's pcg64_state, which PCG64's ctypes.state points to: the
    address of its 128-bit state and increment, and the uint32 that
    next_uint32 buffers from a 64-bit draw."""
    _fields_ = [("pcg_state", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


@functools.cache
def _word_order():
    """Where PCG64 keeps the high and low halves of its state, then of its
    increment, among its four state words, read off numpy's own state
    setter: one known state is set and its four halves looked up.

    StateLayoutUnknown unless the four words hold exactly those halves and
    the buffered uint32's fields what the setter was given.
    """
    halves = (0x11, 0x22, 0x33, 0x55)
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": halves[0] << 64 | halves[1],
                                     "inc": halves[2] << 64 | halves[3]},
                           "has_uint32": 1, "uinteger": 0x77}
    fields = _PCG64State.from_address(bit_generator.ctypes.state_address)
    found = list(fields.pcg_state.contents)
    if sorted(found) != sorted(halves) or (fields.has_uint32, fields.uinteger) != (1, 0x77):
        raise StateLayoutUnknown(
            f"numpy {np.__version__}'s PCG64 state setter wrote the halves "
            f"{[hex(h) for h in halves]} as the words {[hex(w) for w in found]}")
    return tuple(found.index(half) for half in halves)


def _state_words(bit_generator):
    """(words, write) for a PCG64: a writable uint64[4] view of its state
    words, in the order _word_order found, and write(row), which puts a row
    of four such words there and clears the buffered uint32 (has_uint32 and
    uinteger 0), so the generator is left as numpy's state setter leaves
    it.  Both hold a reference to bit_generator: neither outlives it."""
    fields = _PCG64State.from_address(bit_generator.ctypes.state_address)
    memory = fields.pcg_state.contents
    memory.bit_generator = bit_generator  # the view's base keeps it alive
    words = np.frombuffer(memory, dtype=np.uint64)

    def write(row):
        words[...] = row
        fields.has_uint32 = fields.uinteger = 0
    return words, write


def _substreams(master_seed, start, stop, rng=None):
    """Yield, once for each trial k in [start, stop) in turn, one reused
    generator, rng or a new one, that draws exactly what
    Generator(PCG64(SeedSequence((master_seed, k)))) would.

    Its state words are written for each k, so a yielded rng is valid only
    until the next one is taken.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    _, write = _state_words(rng.bit_generator)
    words = _seed_words(master_seed)
    for lo in range(start, stop, _STATES):
        for row in _pcg64_states(words, lo, min(lo + _STATES, stop)):
            write(row)
            yield rng


# --- batched, seed-deterministic runs ------------------------------------

def _grow(buf, used, need):
    """A buffer of at least need values, twice buf's size when that is more,
    holding buf's first used values: room for a trial that overruns buf."""
    grown = np.empty(max(need, 2 * buf.size))
    grown[:used] = buf[:used]
    return grown


def _run_sinr_range(mode, cfg, orders, r_los, sigma2, master_seed, start, stop):
    signal_coef = signal_power(cfg)
    n_orders = len(orders)
    # values a chunk holds per link: radius, angle, activity, one fading
    # value per order; it closes at the links that make 4 _LINKS values
    width = 3 + n_orders
    link_budget = -(-4 * _LINKS // width)

    # A mode is its per-trial draw, draw(rng, links, trials), which returns
    # the trial's link count given the links and trials the chunk holds so
    # far, and the chunk's columns built from the drawn trials' link counts:
    # (r, phi, u, h, los) for _interference, h one row per order, then h0,
    # one row per order.
    rng = np.random.Generator(np.random.PCG64(0))
    words, restore = _state_words(rng.bit_generator)
    if mode == FULL:
        radii = _field_disks(cfg)
        means = [ppp_mean(cfg.density, radius) for radius in radii]
        m_nlos = cfg.m_nlos
        fields = []

        def draw(rng, links, trials):
            # the two uniform blocks and the activity uniforms; the fading
            # waits for the chunk's classification, from the words saved here
            x, xb = (draw_ppp(mean, rng) for mean in means)
            fields.append((x, xb, rng.random(x.shape[1]), words.copy()))
            return x.shape[1]

        def columns(sizes):
            x, xb, u, states = zip(*fields)
            fields.clear()
            (r, phi), (d, psi) = (disk_polar(radius, np.concatenate(blocks, axis=1))
                                  for radius, blocks in zip(radii, (x, xb)))
            los = classify_los(r, phi, d, psi, cfg.blockage_diameter, sizes,
                               [block.shape[1] for block in xb])
            # each trial's LOS count from one cumsum of the chunk's mask
            seen = np.concatenate(([0], np.cumsum(los)))
            ends = np.cumsum(sizes)
            counts = (seen[ends] - seen[ends - sizes]).tolist()
            nlos = ~los
            h, h0 = np.empty((n_orders, r.size)), []
            for m, row in zip(orders, h):
                h_los, h_nlos = [], []
                for state, size, k in zip(states, sizes, counts):
                    restore(state)
                    h_los.append(sample_nakagami_power(m, rng, k))
                    h_nlos.append(sample_nakagami_power(m_nlos, rng, size - k))
                    h0.append(sample_nakagami_power(m, rng))
                # boolean assignment fills the chunk's LOS (NLOS) links in
                # trial order, each trial's from its own draw
                row[los] = np.concatenate(h_los)
                row[nlos] = np.concatenate(h_nlos)
            return r, phi, np.concatenate(u), h, los, np.reshape(h0, (n_orders, -1))
    else:
        mean_count = ppp_mean(cfg.density, r_los)
        # the chunk's draws, trial after trial: a trial of n links drawn
        # after `links` links of `trials` trials holds the width n + K values
        # (K orders) from width links + K trials on, its 3 x n uniforms in
        # C order, then for each order the n + 1 standard gamma values of
        # its fading, h0 last.  Room for _LINKS one-order links and _STATES
        # trials; a trial that overruns it grows it
        buf = np.empty(4 * _LINKS + n_orders * _STATES)
        first, *rest = orders

        def draw(rng, links, trials):
            nonlocal buf
            n = rng.poisson(mean_count)
            lo = width * links + n_orders * trials
            mid, hi = lo + 3 * n, lo + width * n + n_orders
            if hi > buf.size:
                buf = _grow(buf, lo, hi)
            rng.random(out=buf[lo:mid])
            if not rest:
                rng.standard_gamma(first, out=buf[mid:hi])
                return n
            # each order's fading from the state the uniforms left
            state = words.copy()
            for m in orders:
                restore(state)
                rng.standard_gamma(m, out=buf[mid:mid + n + 1])
                mid += n + 1
            return n

        def columns(sizes):
            # one gather index, read once per row: link i, trial j's
            # (i - s_j)th with s_j links before trial j, has its radius
            # uniform at b_j + (i - s_j), b_j = width s_j + K j, and its
            # angle uniform, activity uniform and first order's fading n_j,
            # 2 n_j and 3 n_j further on; each further order's fading comes
            # n_j + 1 after the one before
            ends = np.cumsum(sizes)
            begin = width * (ends - sizes) + n_orders * np.arange(sizes.size)
            step = np.repeat(sizes, sizes)
            index = np.repeat(begin - (ends - sizes), sizes)
            index += np.arange(step.size)
            x = np.empty((width, step.size))
            for i, row in enumerate(x):
                if i > 3:
                    index += 1  # past the previous order's h0
                # every index is in range; numpy's default mode="raise"
                # would write through a copy of row
                np.take(buf, index, out=row, mode="clip")
                index += step
            r, phi = disk_polar(r_los, x)
            u, h = x[2], x[3:]
            # sample_nakagami_power's Gamma(m, 1/m) value is 1/m times the
            # standard gamma value, the product numpy's gamma sampler rounds
            scale = 1.0 / np.array(orders, dtype=float)[:, None]
            h *= scale
            h0 = buf[begin + 4 * sizes + (sizes + 1) * np.arange(n_orders)[:, None]]
            h0 *= scale
            return r, phi, u, h, None, h0

    out = np.empty((stop - start, n_orders, 2))

    def flush(sizes, done):
        sizes = np.array(sizes)
        *links, h0 = columns(sizes)
        rows = out[done:done + sizes.size]
        # SINR = +inf where the denominator is 0 (no noise and no
        # interference) or the quotient passes the float range, which
        # mean_spectral_efficiency refuses by name; an interference sum
        # past the float range is +inf, and the SINR NaN where the signal
        # is +inf too, which simulate_order_sweep refuses
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            interference = _interference(cfg, sizes, *links)
            rows[:, :, 1] = interference.T
            rows[:, :, 0] = (signal_coef * h0 / (sigma2 + interference)).T
        return done + sizes.size

    # one flat loop: set a trial's substream, draw, and flush a chunk once
    # it holds _STATES trials or link_budget links
    sizes, links, done = [], 0, 0
    for rng in _substreams(master_seed, start, stop, rng):
        n = draw(rng, links, len(sizes))
        sizes.append(n)
        links += n
        if len(sizes) == _STATES or links >= link_budget:
            done = flush(sizes, done)
            sizes, links = [], 0
    if sizes:
        flush(sizes, done)
    return out


def _run_los_count_range(cfg, master_seed, start, stop):
    out = np.empty(stop - start, dtype=np.int64)
    for j, rng in enumerate(_substreams(master_seed, start, stop)):
        _, _, los = sample_full_field(cfg, rng)
        out[j] = int(np.count_nonzero(los))
    return out


def check_run(n_trials, master_seed, workers):
    """The trial count, master seed and worker count of a run, as ints.

    ConfigError TrialCountInvalid, SeedInvalid or WorkersInvalid unless
    each is an integer and not a bool, n_trials in [1, MAX_TRIALS) and the
    others >= 0.
    """
    checked = []
    for violation, name, value, low, high in (
            ("TrialCountInvalid", "trial count", n_trials, 1, MAX_TRIALS),
            ("SeedInvalid", "seed", master_seed, 0, math.inf),
            ("WorkersInvalid", "workers", workers, 0, math.inf)):
        try:
            count = operator.index(value)
        except TypeError:
            count = None
        if (count is None or isinstance(value, (bool, np.bool_))
                or not low <= count < high):
            raise ConfigError(violation, f"{name} must be an integer in "
                              f"[{low}, {high}), got {value!r}")
        checked.append(count)
    return tuple(checked)


def _map_trials(run_range, n_trials, master_seed, workers, *args):
    """run_range(*args, master_seed, start, stop) over the trials
    [0, n_trials), one contiguous range per worker (0 = one per CPU), with
    the parts concatenated in trial order.

    check_run refuses the three counts before anything is allocated or a
    worker starts.
    """
    n_trials, master_seed, workers = check_run(n_trials, master_seed, workers)
    if workers == 0:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, n_trials))
    run = functools.partial(run_range, *args, master_seed)
    if workers == 1:
        return run(0, n_trials)
    bounds = np.linspace(0, n_trials, workers + 1).astype(int).tolist()
    # looked up here: the pool's imports (multiprocessing, socket,
    # subprocess, logging) would slow every single-worker start
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, bounds[:-1], bounds[1:])))


def simulate_order_sweep(mode, config, orders, n_trials, master_seed, workers=1):
    """Per-trial (sinr, interference) arrays, one of shape (n_trials, 2) for
    each LOS Nakagami order in ``orders``, in their order (views of one
    array).  The array of order m is bit for bit the one
    simulate_sinr_samples gives for dataclasses.replace(config, m_los=m):
    each trial draws its deployment once, then every order's fading from
    the same substream state (see the module docstring), so the orders
    share their deployments, and one run, serial or on one pool of
    workers, serves them all.

    Refusals, all before any worker starts: those of simulate_sinr_samples,
    and EmptySweepGrid for no order, and an order that a NetworkConfig
    refuses as m_los (NakagamiOrderInvalid, NakagamiOrderTooLarge).  After
    the run, SampleNaN for the first order with a NaN SINR.
    """
    if mode not in (FULL, LOSBALL):
        raise ValueError(f"mode must be '{FULL}' or '{LOSBALL}', got {mode!r}")
    if len(orders) == 0:
        raise ConfigError("EmptySweepGrid", "a sweep needs at least one Nakagami order")
    orders = tuple(replace(config, m_los=m).m_los for m in orders)
    r_los, sigma2 = None, config.noise_power
    if mode == FULL:
        _field_disks(config)  # DensityTooHigh here, before any worker starts
    else:
        # the closed form's LOS ball, everything outside it as its mean
        # power; neither depends on the LOS fading order
        params = coverage_params(config)
        r_los, sigma2 = params.r_los, params.sigma2_total
    samples = _map_trials(_run_sinr_range, n_trials, master_seed, workers,
                          mode, config, orders, r_los, sigma2)
    sweep = [samples[:, j] for j in range(len(orders))]
    for order_samples in sweep:
        _refuse_nan(order_samples[:, 0], "trials have a NaN SINR: signal and "
                    "interference power both pass the float range")
    return sweep


def simulate_sinr_samples(mode, config, n_trials, master_seed, workers=1):
    """Per-trial (sinr, interference) array, shape (n_trials, 2): the
    one-order case of simulate_order_sweep, at config.m_los.

    Trial k is fully determined by (mode, config, master_seed, k), so any
    worker split returns the identical array.  Every refusal of an input
    is raised here, before any worker starts: ValueError for an unknown
    mode; ConfigError DensityTooHigh in FULL when one numpy array cannot
    hold a deployment's coordinates at its mean count, in LOSBALL
    analytic.nlos_mean_power's refusals of the mean power outside the LOS
    ball, and the check_run refusals of n_trials, master_seed and workers.
    After the run, ConfigError SampleNaN when a trial's SINR is NaN: a
    signal power and an interference sum both past the float range.
    """
    return simulate_order_sweep(mode, config, (config.m_los,), n_trials,
                                master_seed, workers)[0]


def _refuse_nan(values, what):
    if nan := np.count_nonzero(np.isnan(values)):
        raise ConfigError("SampleNaN", f"{nan} of {values.size} {what}")


def empirical_ccdf(samples, thresholds):
    """Exceedance counts of ``samples`` on an ascending threshold grid; a
    malformed, NaN or descending grid is refused (see model.check_grid),
    no samples at all as a trial count of 0 (TrialCountInvalid), and a NaN
    sample, which the count would take as above every threshold, as
    SampleNaN."""
    thresholds = check_grid("threshold", thresholds)
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if not n:
        raise ConfigError("TrialCountInvalid", "an empirical CCDF needs at least one sample")
    _refuse_nan(samples, "samples are NaN")
    p = (n - np.searchsorted(samples, thresholds, side="right")) / n
    return EmpiricalDistribution(thresholds=thresholds, ccdf=p, n_trials=n,
                                 stderr=np.sqrt(p * (1.0 - p) / n))


def simulate_ccdf(mode, config, n_trials, thresholds, master_seed, workers=1):
    """Empirical P(SINR > beta) on the given ascending linear-SINR grid;
    a malformed, NaN or descending grid is refused before any trial runs
    (see model.check_grid)."""
    check_grid("SINR threshold", thresholds)
    samples = simulate_sinr_samples(mode, config, n_trials, master_seed, workers)
    return empirical_ccdf(samples[:, 0], thresholds)


def simulate_se_ccdf(mode, config, n_trials, t_grid, master_seed, workers=1):
    """Empirical P(log2(1 + SINR) > t) on an ascending grid of t (bits/s/Hz).

    Exceedance is counted on the equivalent SINR thresholds 2^t - 1, so the
    estimate shares every sample with simulate_ccdf.
    """
    t_grid = check_grid("spectral-efficiency", t_grid)
    return replace(simulate_ccdf(mode, config, n_trials, rate_to_sinr(t_grid),
                                 master_seed, workers),
                   thresholds=t_grid)


def _mean_and_se(values):
    n = values.size
    mean = math.fsum(values) / n
    if n < 2:
        return mean, math.inf
    # squared as Python floats: float ** 2 is libm's pow, the rounding of
    # the pinned values; numpy's array square is x * x, which differs from
    # pow in the last bit on about 0.1% of values
    var = math.fsum([(v - mean) ** 2 for v in values.tolist()]) / (n - 1)
    return mean, math.sqrt(var / n)


def mean_spectral_efficiency(samples):
    """Monte Carlo mean spectral efficiency of (sinr, interference) samples,
    shape (n, 2); returns (mean, standard error).

    ConfigError SinrUnbounded when a trial's SINR is infinite: with no
    noise a trial without interference has a zero denominator, and the
    mean rate of such a run does not exist; a reference SNR past the float
    range makes every SINR infinite.
    """
    unbounded = np.count_nonzero(np.isinf(samples[:, 0]))
    if unbounded:
        raise ConfigError("SinrUnbounded",
                          f"{unbounded} of {samples.shape[0]} trials have an infinite SINR "
                          f"(no noise and no interference, or an SNR past the float "
                          f"range), so the mean rate is not a finite number")
    return _mean_and_se(np.log2(1.0 + samples[:, 0]))


def estimate_ergodic_se(mode, config, n_trials, master_seed, workers=1):
    """Monte Carlo mean spectral efficiency; returns (mean, standard error):
    mean_spectral_efficiency of simulate_sinr_samples' run, with its
    refusals."""
    return mean_spectral_efficiency(
        simulate_sinr_samples(mode, config, n_trials, master_seed, workers))


def estimate_mean_los_count(config, n_deployments, master_seed, workers=1):
    """Mean geometric count of unblocked interferers; returns (mean, se).

    Pure geometry: interferers on the network disk, blockages on the
    enlarged disk, exact classification; no marks or fading involved.
    A density whose deployment coordinates one numpy array cannot hold
    (DensityTooHigh) and a bad count or seed are refused before any worker
    starts.
    """
    _field_disks(config)  # DensityTooHigh here, before any worker starts
    counts = _map_trials(_run_los_count_range, n_deployments, master_seed,
                         workers, config)
    return _mean_and_se(counts.astype(float))
