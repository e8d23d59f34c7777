"""Network model parameters and antenna gain combinatorics.

All quantities are stored internally in linear units: power gains are
dimensionless linear ratios (not dB), beamwidths are radians, distances
are meters, densities are users per square meter.  dB and degrees appear
only at the configuration-file boundary.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """A model parameter or configuration file violates an invariant.

    ``violation`` is a stable machine-readable name (e.g. ``NetRadiusTooSmall``),
    one per failed invariant, so callers can match on it without parsing text.
    Both constructor arguments stay in ``args``, so the error pickles.
    """

    def __init__(self, violation, message):
        super().__init__(violation, message)
        self.violation = violation

    def __str__(self):
        return f"{self.args[0]}: {self.args[1]}"


def float_power(base, exponent, scale=1.0):
    """scale * base ** exponent on Python floats, and +inf (even for a
    scale that underflowed to 0) where the power passes the float range:
    there Python's float power raises OverflowError and numpy's scalar
    power warns."""
    try:
        return scale * base ** exponent
    except OverflowError:
        return math.inf


def db_to_linear(x_db):
    """Convert a power quantity from dB to linear scale; a value past the
    float range is +inf.  A scalar (a numpy scalar or 0-d array too) goes
    through Python's float power and comes back a Python float: numpy's
    array power differs from it in the last bit on about 5% of dB values
    (10609 of 200005 evenly spaced in [-300, 300] dB, numpy 2.4.6 on
    x86-64), where numpy's scalar power agrees, so a config's gains and
    config_hash must not take the array path."""
    if np.ndim(x_db):
        with np.errstate(over="ignore"):
            return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
    return float_power(10.0, float(x_db / 10.0))


def exceeds_one_array(nbytes):
    """Whether nbytes (a float, perhaps +inf) pass numpy's bound on the
    bytes of one array, np.iinfo(np.intp).max."""
    return nbytes > np.iinfo(np.intp).max


def rate_to_sinr(t):
    """The SINR threshold 2^t - 1 of each spectral-efficiency threshold t
    (bits/s/Hz), elementwise; a value past the float range is +inf."""
    with np.errstate(over="ignore"):
        return np.exp2(np.asarray(t, dtype=float)) - 1.0


@dataclass(frozen=True)
class SectorPattern:
    """Sectorized antenna pattern: constant main-lobe gain over the beamwidth,
    constant side-lobe gain elsewhere.

    main_gain, side_gain are linear power gains; beamwidth is in radians.
    """

    main_gain: float
    side_gain: float
    beamwidth: float

    @property
    def main_lobe_fraction(self):
        """Probability that a uniformly random direction falls in the main lobe."""
        return self.beamwidth / TWO_PI


@dataclass(frozen=True)
class NetworkConfig:
    """All scalar parameters of the wearable-network model.

    density            interferer/blockage density (users per m^2), >= 0
    blockage_diameter  diameter W of the body-blockage disks (m)
    net_radius         radius of the circular network region (m)
    tx_pattern         interferer transmit antenna (SectorPattern)
    rx_pattern         reference receiver antenna (SectorPattern)
    tx_probability     probability that an interferer transmits in a slot
    alpha_los          path-loss exponent on unblocked links
    alpha_nlos         path-loss exponent on blocked links (> 2)
    m_los              integer Nakagami shape for unblocked links
    m_nlos             integer Nakagami shape for blocked links (simulation only)
    ref_distance       distance of the reference transmitter (m)
    noise_power        thermal noise, same linear normalization as received powers
    power_ratio        interferer-to-reference transmit power ratio (1 = equal power)

    Every model invariant is checked when a config is made, by direct
    construction, config_from_keys or dataclasses.replace, so a
    NetworkConfig that exists is valid.  Each field keeps the value its
    check settles, whatever number type it was given: Python floats (-0.0
    as 0.0), SectorPatterns of Python floats and int Nakagami orders, so
    ==, config_hash and every route see one type.  The first failed
    invariant raises ConfigError with a named violation: the fields of
    _RANGES by check_field, in the table's order, then net_radius, the
    antenna patterns and the Nakagami orders.  A length, probability,
    exponent, power, gain or beamwidth that is not a real number is
    ``ValueNotReal``, an infinite or NaN one ``ValueNotFinite``, and a
    Nakagami order that is a bool or not a positive integer
    ``NakagamiOrderInvalid``.
    density = 0 is accepted and means an empty network (no interferers and
    no blockages), which is a well-defined degenerate case.
    """

    density: float
    blockage_diameter: float
    net_radius: float
    tx_pattern: SectorPattern
    rx_pattern: SectorPattern
    tx_probability: float
    alpha_los: float
    alpha_nlos: float
    m_los: int
    m_nlos: int
    ref_distance: float
    noise_power: float
    power_ratio: float = 1.0

    def __post_init__(self):
        # + 0.0 stores a -0.0 as 0.0
        settled = {name: check_field(name, getattr(self, name)) + 0.0 for name in _RANGES}
        check_real("net_radius", self.net_radius)
        if not (self.net_radius > self.blockage_diameter):
            raise ConfigError("NetRadiusTooSmall",
                              f"net_radius must exceed the blockage diameter, got "
                              f"{self.net_radius} <= {self.blockage_diameter}")
        settled["tx_pattern"] = _check_pattern(self.tx_pattern, "transmit")
        settled["rx_pattern"] = _check_pattern(self.rx_pattern, "receive")
        for name, value in (("m", self.m_los), ("m_nlos", self.m_nlos)):
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < 1):
                raise ConfigError("NakagamiOrderInvalid",
                                  f"{name} must be a positive integer, got {value!r}")
            if value > MAX_NAKAGAMI_M:
                raise ConfigError("NakagamiOrderTooLarge",
                                  f"{name} = {value} exceeds the numerically safe maximum "
                                  f"{MAX_NAKAGAMI_M}")
        # a frozen dataclass's __setattr__ refuses
        vars(self).update(settled, net_radius=float(self.net_radius),
                          m_los=int(self.m_los), m_nlos=int(self.m_nlos))


@dataclass(frozen=True)
class GainPairTable:
    """Joint transmit/receive gain combinations for a random interferer.

    q[i] is the probability of combination i, G[i] the corresponding linear
    gain product, ordered (Gt*Gr, gt*Gr, Gt*gr, gt*gr).  sum(q) == 1.
    """

    q: np.ndarray
    G: np.ndarray

    def mean_gain(self):
        """q . G, the average joint antenna gain of a random interferer."""
        return float(np.dot(self.q, self.G))


# Ceiling for the Nakagami shape.  It is not where the analytic coverage
# bound stays valid: the alternating binomial sum in its expression (terms
# grow like C(m, m/2)) cancels so badly that the CCDF rises with the
# threshold from m = 23 at some figure setups (see analytic._LAPLACE_ABS_TOL).
MAX_NAKAGAMI_M = 64


def check_real(name, value):
    """Refuse a bool or a value that is not a real number (ValueNotReal) and
    a NaN, an infinity or an int past the float range (ValueNotFinite);
    numpy scalars are real numbers."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ConfigError("ValueNotReal",
                          f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # not printed: str() of a long enough int raises
        finite, value = False, "an integer past the float range"
    if not finite:
        raise ConfigError("ValueNotFinite", f"{name} must be finite, got {value}")


# The rule of each scalar NetworkConfig field that its value alone decides:
# field -> (violation name, the rule as a message reads it, the test).
_RANGES = {
    "density": ("DensityNegative", "be >= 0", lambda v: v >= 0.0),
    "blockage_diameter": ("BlockageDiameterNotPositive", "be > 0", lambda v: v > 0.0),
    "tx_probability": ("TxProbabilityOutOfRange", "lie in [0, 1]",
                       lambda v: 0.0 <= v <= 1.0),
    "alpha_los": ("AlphaLosNotPositive", "be > 0", lambda v: v > 0.0),
    "alpha_nlos": ("AlphaNlosTooSmall", "exceed 2 (the mean weak-interferer "
                   "power diverges otherwise)", lambda v: v > 2.0),
    "ref_distance": ("RefDistanceNotPositive", "be > 0", lambda v: v > 0.0),
    "noise_power": ("NoisePowerNegative", "be >= 0", lambda v: v >= 0.0),
    "power_ratio": ("PowerRatioNotPositive", "be > 0", lambda v: v > 0.0),
}


def check_field(name, value):
    """``value`` as a float once it passes check_real and the _RANGES rule
    of the NetworkConfig field ``name``; ConfigError otherwise."""
    check_real(name, value)
    violation, rule, ok = _RANGES[name]
    if not ok(value):
        raise ConfigError(violation, f"{name} must {rule}, got {value}")
    return float(value)


def nakagami_order(name, value):
    """A Nakagami order given as a real number, as an int: check_real's
    refusals, and NakagamiOrderInvalid unless it is integral."""
    check_real(name, value)
    if int(value) != value:
        raise ConfigError("NakagamiOrderInvalid", f"{name} must be an integer, got {value}")
    return int(value)


def check_thresholds(name, x):
    """Thresholds x as a float array of any shape, or ConfigError
    ThresholdNaN for a NaN in it, else ThresholdNegative for a value < 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        if np.any(np.isnan(x)):
            raise ConfigError("ThresholdNaN", f"{name} must not hold NaN, got {x}")
        raise ConfigError("ThresholdNegative", f"{name} must be >= 0, got {x.min()}")
    return x


def check_grid(name, grid):
    """A threshold grid as a float array, or ConfigError, which callers
    raise before any work: MalformedGrid unless it is a nonempty 1-d grid,
    ThresholdNaN for a NaN in it, GridNotAscending where a value is below
    the one before it (equal neighbours are allowed)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("MalformedGrid", f"{name} grid must be a nonempty "
                          f"1-d grid, got shape {grid.shape}")
    if np.any(np.isnan(grid)):
        raise ConfigError("ThresholdNaN", f"{name} grid must not hold NaN, got {grid}")
    down = np.flatnonzero(grid[1:] < grid[:-1])
    if down.size:
        a, b = grid[down[0]:down[0] + 2].tolist()
        raise ConfigError("GridNotAscending",
                          f"{name} grid must not go down, got {b} after {a}")
    return grid


def _check_pattern(pat, side):
    """``pat`` as a SectorPattern of Python floats once its gains and
    beamwidth pass their rules; ConfigError otherwise."""
    check_real(f"{side} main-lobe gain", pat.main_gain)
    # a side-lobe gain of +inf (a file's gt_dB = 4000) lies above the finite
    # main-lobe gain, and is named MainGainBelowSideGain below
    if pat.side_gain != math.inf:
        check_real(f"{side} side-lobe gain", pat.side_gain)
    check_real(f"{side} beamwidth", pat.beamwidth)
    if not (pat.side_gain > 0.0):
        raise ConfigError("SideGainNotPositive",
                          f"{side} side-lobe gain must be > 0, got {pat.side_gain}")
    if pat.main_gain < pat.side_gain:
        raise ConfigError("MainGainBelowSideGain",
                          f"{side} main-lobe gain {pat.main_gain} is below side-lobe gain {pat.side_gain}")
    if not (0.0 < pat.beamwidth <= TWO_PI):
        raise ConfigError("BeamwidthOutOfRange",
                          f"{side} beamwidth must lie in (0, 2*pi], got {pat.beamwidth}")
    return SectorPattern(float(pat.main_gain), float(pat.side_gain), float(pat.beamwidth))


def gain_pairs(tx, rx):
    """Joint gain-combination table for independent, uniformly oriented antennas.

    The transmit main lobe points at the receiver with probability
    theta_t/2pi and the interferer falls in the receive main lobe with
    probability theta_r/2pi, independently; the four joint outcomes give
    the probability vector q and gain-product vector G.
    """
    at = tx.main_lobe_fraction
    ar = rx.main_lobe_fraction
    q = np.array([at * ar, (1.0 - at) * ar, at * (1.0 - ar), (1.0 - at) * (1.0 - ar)])
    G = np.array([tx.main_gain * rx.main_gain,
                  tx.side_gain * rx.main_gain,
                  tx.main_gain * rx.side_gain,
                  tx.side_gain * rx.side_gain])
    assert abs(q.sum() - 1.0) < 4.0 * np.finfo(float).eps
    return GainPairTable(q=q, G=G)


# --- configuration files -------------------------------------------------
#
# Flat "key = value" text files.  Angles are given in degrees and gains in
# dB in the file; conversion to radians/linear happens on load.  m_nlos and
# power_ratio are optional (defaults below); every other key is mandatory
# and never defaulted.

CONFIG_KEYS = ("lambda", "W", "r_net", "Gt_dB", "gt_dB", "theta_t_deg",
               "Gr_dB", "gr_dB", "theta_r_deg", "p_t", "alpha_L", "alpha_N",
               "m", "m_nlos", "R0", "noise_power", "power_ratio")

_OPTIONAL_KEYS = {"m_nlos": 1, "power_ratio": 1.0}
_INT_KEYS = {"m", "m_nlos"}

REQUIRED_PLACEHOLDER = "REQUIRED"


def config_from_keys(values):
    """Build a NetworkConfig from a dict of external-unit values.

    ``values`` maps the configuration-file keys (CONFIG_KEYS) to numbers in
    file units (dB gains, degree beamwidths).  Unknown keys are rejected.
    A string value is parsed as a float; any other value must pass
    check_real under its key's name.
    """
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError("UnknownConfigKey",
                          f"unknown configuration key(s): {', '.join(sorted(unknown))}")
    missing = set(CONFIG_KEYS) - set(values) - set(_OPTIONAL_KEYS)
    if missing:
        raise ConfigError("MissingConfigKey",
                          f"missing configuration key(s): {', '.join(sorted(missing))}")
    vals = {**_OPTIONAL_KEYS, **values}

    def num(key):
        v = vals[key]
        if isinstance(v, str):
            if v.strip() == REQUIRED_PLACEHOLDER:
                raise ConfigError("MissingRequiredValue",
                                  f"key '{key}' is marked {REQUIRED_PLACEHOLDER}; "
                                  f"set a value before use")
            try:
                v = float(v)
            except ValueError:
                raise ConfigError("InvalidNumber",
                                  f"value for '{key}' is not a number: {v!r}") from None
        else:
            # under the key's name, before db_to_linear or math.radians
            # raises a bare OverflowError past the float range
            check_real(key, v)
        return nakagami_order(key, v) if key in _INT_KEYS else v

    def pattern(main_db, side_db, width_deg):
        return SectorPattern(db_to_linear(num(main_db)), db_to_linear(num(side_db)),
                             math.radians(num(width_deg)))

    return NetworkConfig(
        density=num("lambda"),
        blockage_diameter=num("W"),
        net_radius=num("r_net"),
        tx_pattern=pattern("Gt_dB", "gt_dB", "theta_t_deg"),
        rx_pattern=pattern("Gr_dB", "gr_dB", "theta_r_deg"),
        tx_probability=num("p_t"),
        alpha_los=num("alpha_L"),
        alpha_nlos=num("alpha_N"),
        m_los=num("m"),
        m_nlos=num("m_nlos"),
        ref_distance=num("R0"),
        noise_power=num("noise_power"),
        power_ratio=num("power_ratio"),
    )


def parse_key_values(text):
    """Raw 'key = value' pairs; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("MalformedConfigLine",
                              f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError("DuplicateConfigKey", f"line {lineno}: key '{key}' repeated")
        values[key] = value
    return values


def parse_config_text(text):
    """Parse and validate a configuration from 'key = value' text."""
    return config_from_keys(parse_key_values(text))


def load_config(path):
    """Read and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_hash(config):
    """Short stable hash of the internal-unit parameters, for artifact headers.

    One 'name=value' part per NetworkConfig field, in declaration order;
    an antenna pattern prints as 'tx=' / 'rx=' and its values, comma-separated.
    """
    parts = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, SectorPattern):
            values = ",".join(repr(getattr(value, g.name)) for g in fields(value))
            parts.append(f"{f.name.removesuffix('_pattern')}={values}")
        else:
            parts.append(f"{f.name}={value!r}")
    digest = hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()
    return digest[:12]
