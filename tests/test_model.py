"""Parameter handling, unit conversion, and antenna gain combinatorics."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import BASE_KEYS, make_config
from wearnet import experiments, geometry, losball, model


def test_db_anchors():
    # 10**(6/10) and 10**(-0.88/10) evaluated independently of the module
    assert abs(model.db_to_linear(6.0) - 3.9810717055349722) < 1e-14
    assert abs(model.db_to_linear(-0.88) - 0.8165823713585925) < 1e-14
    assert model.db_to_linear(0.0) == 1.0


def test_main_lobe_fraction():
    pat = model.SectorPattern(main_gain=4.0, side_gain=0.8, beamwidth=math.radians(50.0))
    # 50/360 as an exact fraction
    assert abs(pat.main_lobe_fraction - 0.1388888888888889) < 1e-15


def test_gain_pair_probabilities():
    cfg = make_config()
    table = model.gain_pairs(cfg.tx_pattern, cfg.rx_pattern)
    # both-main-lobe probability (50/360)^2 = 25/1296, computed via Fraction
    assert abs(table.q[0] - 0.019290123456790122) < 1e-15
    assert np.all(table.q >= 0.0)
    assert abs(math.fsum(table.q) - 1.0) < 1e-12


def test_gain_pair_mean():
    cfg = make_config()
    table = model.gain_pairs(cfg.tx_pattern, cfg.rx_pattern)
    # fsum of q_i G_i with the dB anchors above: 1.577774093537358
    assert abs(table.mean_gain() - 1.577774093537358) < 1e-12
    # the mean sits between the worst and best joint gains
    assert table.G[3] < table.mean_gain() < table.G[0]


def test_gain_pair_swap_symmetry():
    # swapping the transmit and receive patterns permutes the mixed
    # main/side entries (indices 1 and 2) and leaves the pure ones alone
    tx = model.SectorPattern(main_gain=4.0, side_gain=0.5, beamwidth=math.radians(30.0))
    rx = model.SectorPattern(main_gain=2.0, side_gain=0.25, beamwidth=math.radians(70.0))
    fwd = model.gain_pairs(tx, rx)
    rev = model.gain_pairs(rx, tx)
    perm = [0, 2, 1, 3]
    assert np.allclose(fwd.q, rev.q[perm], rtol=0.0, atol=1e-15)
    assert np.allclose(fwd.G, rev.G[perm], rtol=0.0, atol=1e-15)
    assert abs(fwd.mean_gain() - rev.mean_gain()) < 1e-15


def test_config_hash_behavior():
    cfg = make_config()
    h = model.config_hash(cfg)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert model.config_hash(make_config()) == h
    assert model.config_hash(make_config(p_t=0.5)) != h
    # pinned: artifact headers written before stay comparable
    assert h == "b12b1b99049a"


def test_config_hash_covers_every_field():
    cfg = make_config()
    base = model.config_hash(cfg)
    hashes = set()
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, model.SectorPattern):
            changed = [dataclasses.replace(value, **{g.name: getattr(value, g.name) + 1})
                       for g in dataclasses.fields(value)]
        else:
            changed = [value + 1]
        for new in changed:
            h = model.config_hash(dataclasses.replace(cfg, **{f.name: new}))
            assert h != base, f"config_hash ignores {f.name}"
            hashes.add(h)
    # tx and rx patterns are equal here, so distinct hashes also show that
    # the two patterns are told apart
    assert len(hashes) == 11 + 2 * 3


def test_optional_keys_default():
    values = dict(BASE_KEYS)
    del values["m_nlos"]
    del values["power_ratio"]
    cfg = model.config_from_keys(values)
    assert cfg.m_nlos == 1
    assert cfg.power_ratio == 1.0


def test_with_overrides():
    cfg = make_config()
    bumped = model.with_overrides(cfg, density=5.0)
    assert bumped.density == 5.0
    assert cfg.density == 3.0  # original untouched
    with pytest.raises(model.ConfigError) as err:
        model.with_overrides(cfg, alpha_nlos=1.5)
    assert err.value.violation == "AlphaNlosTooSmall"


def _expect_violation(name, **overrides):
    with pytest.raises(model.ConfigError) as err:
        make_config(**overrides)
    assert err.value.violation == name, (name, err.value.violation)


def test_validation_violations():
    _expect_violation("DensityNegative", **{"lambda": -1.0})
    _expect_violation("BlockageDiameterNotPositive", W=0.0)
    _expect_violation("NetRadiusTooSmall", r_net=0.2)  # below the 0.3 m blocker
    _expect_violation("SideGainNotPositive", gt_dB="-inf")
    _expect_violation("MainGainBelowSideGain", Gr_dB=-3.0, gr_dB=0.0)
    _expect_violation("BeamwidthOutOfRange", theta_t_deg=361.0)
    _expect_violation("TxProbabilityOutOfRange", p_t=1.5)
    _expect_violation("AlphaLosNotPositive", alpha_L=0.0)
    _expect_violation("AlphaNlosTooSmall", alpha_N=2.0)  # boundary excluded
    _expect_violation("NakagamiOrderInvalid", m=0)
    _expect_violation("NakagamiOrderInvalid", m=2.5)
    _expect_violation("NakagamiOrderTooLarge", m=model.MAX_NAKAGAMI_M + 1)
    _expect_violation("RefDistanceNotPositive", R0=0.0)
    _expect_violation("NoisePowerNegative", noise_power=-1.0)
    _expect_violation("PowerRatioNotPositive", power_ratio=0.0)
    # past the file parser, a number field must hold a real number
    cfg = make_config()
    for field, values in (("density", ("3", None, True)),
                          ("tx_probability", ("0.5", None, True))):
        for value in values:
            with pytest.raises(model.ConfigError) as err:
                model.validate(dataclasses.replace(cfg, **{field: value}))
            assert err.value.violation == "ValueNotReal", (field, value)
    # a bool is not a Nakagami order, though Python counts True as 1
    for field in ("m_los", "m_nlos"):
        with pytest.raises(model.ConfigError) as err:
            model.validate(dataclasses.replace(cfg, **{field: True}))
        assert err.value.violation == "NakagamiOrderInvalid"


# -inf dB is a finite linear gain (0), and 4000 dB overflows a float to inf
@pytest.mark.parametrize("key,value", [
    (key, value)
    for key in ("lambda", "W", "r_net", "alpha_L", "alpha_N", "R0",
                "noise_power", "power_ratio")
    for value in ("inf", "-inf", "nan")] + [("Gt_dB", "inf"), ("Gt_dB", "nan"),
                                            ("Gt_dB", "4000")])
def test_non_finite_values_rejected(key, value):
    _expect_violation("ValueNotFinite", **{key: value})


def test_density_zero_is_valid():
    cfg = make_config(**{"lambda": 0.0})
    assert cfg.density == 0.0


def test_parse_config_text():
    text = "\n".join(f"{k} = {v}" for k, v in BASE_KEYS.items())
    text = "# scenario file\n\n" + text + "   # trailing comment on last line"
    cfg = model.parse_config_text(text)
    assert cfg == make_config()


def test_parse_errors():
    good = "\n".join(f"{k} = {v}" for k, v in BASE_KEYS.items())

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good + "\nWIDTH 0.3")
    assert err.value.violation == "MalformedConfigLine"

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good + "\nW = 0.5")
    assert err.value.violation == "DuplicateConfigKey"

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good + "\nbogus = 1")
    assert err.value.violation == "UnknownConfigKey"

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good.replace("p_t = 1.0\n", ""))
    assert err.value.violation == "MissingConfigKey"

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good.replace("alpha_L = 3.2", "alpha_L = REQUIRED"))
    assert err.value.violation == "MissingRequiredValue"

    with pytest.raises(model.ConfigError) as err:
        model.parse_config_text(good.replace("p_t = 1.0", "p_t = one"))
    assert err.value.violation == "InvalidNumber"


def test_load_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in BASE_KEYS.items()))
    assert model.load_config(path) == make_config()


@pytest.mark.parametrize("field, value, violation", [
    ("density", -1.0, "DensityNegative"),
    ("density", math.nan, "ValueNotFinite"),
    ("density", 10**400, "ValueNotFinite"),
    ("blockage_diameter", 0.0, "BlockageDiameterNotPositive"),
], ids=["density-negative", "density-nan", "density-huge-int", "W-zero"])
def test_one_input_one_name_at_every_entry_point(tmp_path, field, value, violation):
    # every function that takes the density or W refuses it by the config
    # field's one rule, model.check_field
    cfg = make_config()
    args = {"density": 3.0, "blockage_diameter": 0.3, field: value}
    lam, W = args["density"], args["blockage_diameter"]
    calls = {
        "validate": lambda: model.with_overrides(cfg, **{field: value}),
        "mean_los_interferers": lambda: losball.mean_los_interferers(lam, W, 10.0),
        "los_ball_radius": lambda: losball.los_ball_radius(lam, W, 10.0),
        "los_ball_radius_limit": lambda: losball.los_ball_radius_limit(lam, W),
        "blockage_probability": lambda: geometry.blockage_probability(1.0, lam, W),
    }
    if field == "density":
        plan = experiments.ExperimentPlan(kind="losball_sweep", config=cfg,
                                          grid=(5.0,), out_dir=str(tmp_path),
                                          density_family=(3.0, value))
        calls["sample_ppp_disk"] = lambda: geometry.sample_ppp_disk(
            lam, 5.0, np.random.default_rng(0))
        calls["validate_plan"] = lambda: experiments.validate_plan(plan)
    else:
        calls["blocking_area"] = lambda: geometry.blocking_area(1.0, W)
    for entry, call in calls.items():
        with pytest.raises(model.ConfigError) as err:
            call()
        assert err.value.violation == violation, entry


def test_range_table_rows_refuse_by_their_names():
    # each _RANGES row: its boundary case is refused by its name alone,
    # through validate and through check_field, and a passing value
    # comes back as a float
    cfg = make_config()
    for field, bad in (("density", -1e-300), ("blockage_diameter", 0.0),
                       ("tx_probability", 1.0 + 1e-15), ("alpha_los", 0.0),
                       ("alpha_nlos", 2.0), ("ref_distance", 0.0),
                       ("noise_power", -1e-300), ("power_ratio", 0.0)):
        violation = model._RANGES[field][0]
        for call in (lambda: model.with_overrides(cfg, **{field: bad}),
                     lambda: model.check_field(field, bad)):
            with pytest.raises(model.ConfigError) as err:
                call()
            assert err.value.violation == violation, field
    assert list(model._RANGES) == ["density", "blockage_diameter", "tx_probability",
                                   "alpha_los", "alpha_nlos", "ref_distance",
                                   "noise_power", "power_ratio"]
    value = model.check_field("density", np.float64(3.0))
    assert value == 3.0 and type(value) is float


def test_int_past_float_range_is_not_finite():
    # math.isfinite raises OverflowError on such an int; it is a named
    # refusal, and its message does not print the int (str() of an int
    # of more than 4300 digits raises)
    for value in (10**400, -10**400, 10**5000):
        with pytest.raises(model.ConfigError) as err:
            model.check_real("x", value)
        assert err.value.violation == "ValueNotFinite"
        assert "past the float range" in str(err.value)
    model.check_real("x", 2**1000)  # a large int within the float range


@pytest.mark.parametrize("key", ["lambda", "theta_t_deg", "Gt_dB", "p_t"])
def test_config_dict_values_checked_before_float(key):
    # float() of an int past the float range raised a bare OverflowError;
    # a value that is not a string is refused under its key's name
    for value, violation in ((10**400, "ValueNotFinite"), (None, "ValueNotReal"),
                             (True, "ValueNotReal"), (math.nan, "ValueNotFinite")):
        with pytest.raises(model.ConfigError) as err:
            make_config(**{key: value})
        assert err.value.violation == violation, value
        assert key in str(err.value)


def test_every_antenna_pattern_field_is_a_real_number():
    # the side-lobe gain and the beamwidth pass check_real as the main-lobe
    # gain does: a string or None is ValueNotReal, not a TypeError, and a
    # NaN side gain ValueNotFinite, not SideGainNotPositive
    cfg = make_config()
    for pattern, violation in (
            (model.SectorPattern(4.0, "1", 1.0), "ValueNotReal"),
            (model.SectorPattern(4.0, 1.0, None), "ValueNotReal"),
            (model.SectorPattern(4.0, 1.0, "1"), "ValueNotReal"),
            (model.SectorPattern(4.0, math.nan, 1.0), "ValueNotFinite"),
            (model.SectorPattern(4.0, 1.0, math.inf), "ValueNotFinite"),
            # +inf lies above the main gain, as a file's gt_dB = 4000 gives
            (model.SectorPattern(4.0, math.inf, 1.0), "MainGainBelowSideGain")):
        for field in ("tx_pattern", "rx_pattern"):
            with pytest.raises(model.ConfigError) as err:
                model.validate(dataclasses.replace(cfg, **{field: pattern}))
            assert err.value.violation == violation, (field, pattern)


def test_nakagami_order_one_integer_rule():
    assert model.nakagami_order("m", 2.0) == 2 and type(model.nakagami_order("m", 2.0)) is int
    assert model.nakagami_order("m", np.int64(3)) == 3
    for value, violation in ((2.5, "NakagamiOrderInvalid"), (math.nan, "ValueNotFinite"),
                             (math.inf, "ValueNotFinite"), (10**400, "ValueNotFinite"),
                             ("2", "ValueNotReal"), (True, "ValueNotReal")):
        with pytest.raises(model.ConfigError) as err:
            model.nakagami_order("m", value)
        assert err.value.violation == violation, value
    # an exact int is integral, even where a float cannot hold it
    assert model.nakagami_order("m", 2**53 + 1) == 2**53 + 1
    # a config's orders go through it
    _expect_violation("NakagamiOrderInvalid", m_nlos="1.5")
    _expect_violation("ValueNotFinite", m=10**400)
