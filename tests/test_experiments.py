"""Experiment plans, CSV artifacts, comparison gates, figure configs."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_config
from wearnet import analytic, experiments, losball, mcsim, model


def _summary(tmp_path):
    return (Path(tmp_path) / "summary.txt").read_text()


def _plan(tmp_path, **kw):
    args = dict(kind="losball_sweep", config=make_config(), grid=(5.0, 10.0),
                out_dir=str(tmp_path), seed=7, trials=400)
    args.update(kw)
    return experiments.ExperimentPlan(**args)


def test_plan_validation(tmp_path):
    with pytest.raises(model.ConfigError) as err:
        experiments.validate_plan(_plan(tmp_path, kind="bogus"))
    assert err.value.violation == "UnknownPlanKind"
    with pytest.raises(model.ConfigError) as err:
        experiments.validate_plan(_plan(tmp_path, grid=()))
    assert err.value.violation == "EmptySweepGrid"
    with pytest.raises(model.ConfigError) as err:
        experiments.validate_plan(_plan(tmp_path, kind="nakagami_sweep", grid=(1, 2.5)))
    assert err.value.violation == "NakagamiOrderInvalid"
    # a bool is refused like any other non-count: trials=True ran one trial
    for trials in (0, 2**32, True, np.True_):
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, trials=trials))
        assert err.value.violation == "TrialCountInvalid"
    for seed in (-1, False, np.False_):
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, seed=seed))
        assert err.value.violation == "SeedInvalid"
    for workers in (-1, 1.5, "2", True, np.True_):
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, workers=workers))
        assert err.value.violation == "WorkersInvalid"
    for family, violation in (((3.0, math.nan), "ValueNotFinite"),
                              ((math.inf,), "ValueNotFinite"),
                              ((1.0, -1.0), "DensityNegative")):
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, density_family=family))
        assert err.value.violation == violation
    # a sweep value obeys the rule of the config field it stands for
    for kind, grid, violation in (
            ("mean_count_sweep", (1.0, -1.0), "DensityNegative"),
            ("nakagami_sweep", (1, 65), "NakagamiOrderTooLarge"),
            ("losball_sweep", (-1.0,), "NetRadiusTooSmall"),
            ("losball_sweep", (0.3,), "NetRadiusTooSmall")):
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, kind=kind, grid=grid))
        assert err.value.violation == violation
    for kind in experiments.KINDS:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(model.ConfigError) as err:
                experiments.validate_plan(_plan(tmp_path, kind=kind, grid=(1.0, bad)))
            assert err.value.violation == "ValueNotFinite"


def test_int_past_float_range_refused_in_plans(tmp_path):
    # math.isfinite raises OverflowError on such an int; check_real names it
    for kind in experiments.KINDS:
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, kind=kind, grid=(1, 10**400)))
        assert err.value.violation == "ValueNotFinite", kind
    for field in ("tolerance", "density_family"):
        value = 10**400 if field == "tolerance" else (10**400,)
        with pytest.raises(model.ConfigError) as err:
            experiments.validate_plan(_plan(tmp_path, **{field: value}))
        assert err.value.violation == "ValueNotFinite", field


@pytest.mark.parametrize("bad", ["3", True, np.True_, None, 2j],
                         ids=["str", "bool", "numpy-bool", "none", "complex"])
@pytest.mark.parametrize("field", ["grid", "density_family"])
def test_non_real_plan_values_refused_before_rows(tmp_path, monkeypatch,
                                                  field, bad):
    # a bool passes math.isfinite and used to fail only when the CSV was
    # formatted; a string or None raised a bare TypeError
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    monkeypatch.setattr(losball, "mean_los_interferers", not_called)
    plan = _plan(tmp_path, **{field: (1.0, bad)})
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(plan)
    assert err.value.violation == "ValueNotReal"
    assert not os.listdir(tmp_path)
    # numpy scalars and ints are real numbers
    experiments.validate_plan(_plan(tmp_path, grid=(np.float64(5.0), 10),
                                    density_family=(np.int64(1), 0.5)))


@pytest.mark.parametrize("tolerance, violation", [
    (math.nan, "ValueNotFinite"), (math.inf, "ValueNotFinite"),
    (-1.0, "ToleranceNegative"), (-1e-300, "ToleranceNegative"),
    ("0.1", "ValueNotReal"), (True, "ValueNotReal"),
], ids=["nan", "inf", "negative", "tiny-negative", "str", "bool"])
def test_bad_tolerance_refused_before_rows(tmp_path, monkeypatch, tolerance,
                                           violation):
    # a NaN or negative tolerance used to run the whole plan, then fail its
    # gate (status=FAIL tolerance=nan)
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    monkeypatch.setitem(experiments._KINDS, "coverage_compare",
                        (not_called, *experiments._KINDS["coverage_compare"][1:]))
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(_plan(tmp_path, kind="coverage_compare",
                                   tolerance=tolerance))
    assert err.value.violation == violation
    assert not os.listdir(tmp_path)
    # zero and positive tolerances, numpy scalars included, are accepted
    for ok in (0.0, 0, np.float64(0.5), 3):
        experiments.validate_plan(_plan(tmp_path, kind="coverage_compare", tolerance=ok))


@pytest.mark.parametrize("kind, grid, violation", [
    ("nakagami_sweep", (4, 2, 1), "GridNotAscending"),
    ("coverage_compare", (10.0, 0.0), "GridNotAscending"),
    ("se_compare", (2.0, 1.0), "GridNotAscending"),
    ("se_compare", (-1.0, 0.0, 1.0), "ThresholdNegative"),
], ids=["nakagami", "coverage", "se", "se-negative"])
def test_bad_grid_order_refused_before_rows(tmp_path, monkeypatch, kind, grid,
                                            violation):
    # a grid that goes down used to run every row, then fail the nakagami
    # gate (analytic nondecreasing False), or stop a comparison on an
    # unnamed ValueError after its analytic route ran
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    monkeypatch.setitem(experiments._KINDS, kind,
                        (not_called, *experiments._KINDS[kind][1:]))
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(_plan(tmp_path, kind=kind, grid=grid))
    assert err.value.violation == violation
    assert not os.listdir(tmp_path)
    # equal neighbours stay allowed
    experiments.validate_plan(_plan(tmp_path, kind=kind, grid=(2, 2)))


@pytest.mark.parametrize("kind, grid", [("mean_count_sweep", (1.0, 3.0)),
                                        ("nakagami_sweep", (1, 2))],
                         ids=["mean-count", "nakagami"])
def test_single_trial_refused_where_gates_count_standard_errors(
        tmp_path, monkeypatch, kind, grid):
    # one trial has no standard error: its stderr was inf, which passed
    # both gates (max_z = 0.0) without testing anything
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    monkeypatch.setitem(experiments._KINDS, kind,
                        (not_called, *experiments._KINDS[kind][1:]))
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(_plan(tmp_path, kind=kind, grid=grid, trials=1))
    assert err.value.violation == "TooFewTrials"
    assert not os.listdir(tmp_path)
    experiments.validate_plan(_plan(tmp_path, kind=kind, grid=grid, trials=2))
    # the other kinds gate on the empirical CCDF, which one trial has
    for other in ("losball_sweep", "coverage_compare", "se_compare"):
        experiments.validate_plan(_plan(tmp_path, kind=other, trials=1))


@pytest.mark.parametrize("field, violation", [
    ({"trials": 2.5}, "TrialCountInvalid"),
    ({"seed": 1.5}, "SeedInvalid"),
    # a bad sweep value is refused before the first row runs
    ({"kind": "mean_count_sweep", "grid": (1.0, 2.0, -1.0)}, "DensityNegative"),
    ({"kind": "nakagami_sweep", "grid": (1, 2, 4, 8, 16, 65)},
     "NakagamiOrderTooLarge"),
], ids=["trials", "seed", "mean-count-grid", "nakagami-grid"])
def test_non_integral_trials_or_seed_refused_before_work(tmp_path, monkeypatch,
                                                          field, violation):
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    for module, name in ((analytic, "coverage_ccdf"),
                         (analytic, "ergodic_spectral_efficiency"),
                         (mcsim, "estimate_mean_los_count")):
        monkeypatch.setattr(module, name, not_called)
    plan = _plan(tmp_path, **{"kind": "coverage_compare", "grid": (0.0, 10.0),
                              **field})
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(plan)
    assert err.value.violation == violation
    assert not os.listdir(tmp_path)


def test_write_csv_format(tmp_path):
    cfg = make_config()
    path = experiments.write_csv(str(tmp_path / "t.csv"), ("a", "b"),
                                 [(1, 0.5), (2, 1.0 / 3.0)], cfg, seed=5)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == f"# config_hash={model.config_hash(cfg)} seed=5"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == f"2,{1.0 / 3.0!r}"
    with pytest.raises(TypeError):
        experiments.write_csv(str(tmp_path / "u.csv"), ("a",), [(True,)], cfg, 0)


def test_db_grid_to_linear():
    # the dB -> linear conversion the experiment plans apply to their beta grids
    got = model.db_to_linear([-10.0, 0.0, 10.0])
    assert np.allclose(got, [0.1, 1.0, 10.0], rtol=1e-12)


def test_losball_sweep(tmp_path):
    plan = _plan(tmp_path, density_family=(1.0, 3.0))
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS"
    path = os.path.join(str(tmp_path), "losball.csv")
    lines = Path(path).read_text().splitlines()
    assert lines[1] == "lambda,W,r_net,mean_los,r_los,r_los_limit"
    assert len(lines) == 2 + 4  # comment, header, 2 densities x 2 radii
    lam, W, r_net, mean_los, r_los, limit = (float(v) for v in lines[2].split(","))
    assert (lam, W, r_net) == (1.0, 0.3, 5.0)
    assert mean_los == losball.mean_los_interferers(1.0, 0.3, 5.0)
    assert r_los == losball.los_ball_radius(1.0, 0.3, 5.0)
    assert limit == losball.los_ball_radius_limit(1.0, 0.3)
    assert result["files"] == [path, os.path.join(str(tmp_path), "summary.txt")]
    assert _summary(tmp_path) == "kind=losball_sweep rows=4 status=PASS\n"


def test_mean_count_sweep(tmp_path):
    plan = _plan(tmp_path, kind="mean_count_sweep", grid=(2.0, 3.0),
                 trials=500, tolerance=4.0)
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS" and result["max_z"] <= 4.0
    lines = (tmp_path / "mean_count.csv").read_text().splitlines()
    assert lines[1] == "lambda,mean_los_analytic,mean_los_mc,stderr"
    lam, a, mc, se = (float(v) for v in lines[2].split(","))
    assert a == losball.mean_los_interferers(2.0, 0.3, 10.0)
    want_mc, want_se = mcsim.estimate_mean_los_count(
        dataclasses.replace(plan.config, density=2.0), 500, 7)
    assert mc == want_mc and se == want_se
    assert _summary(tmp_path) == (f"kind=mean_count_sweep max_z={result['max_z']!r} "
                                  "tolerance=4.0 status=PASS\n")


def test_coverage_compare(tmp_path):
    plan = _plan(tmp_path, kind="coverage_compare",
                 grid=tuple(np.arange(-5.0, 16.0, 5.0)),
                 trials=3000, tolerance=0.06)
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS"
    assert result["bound_direction"] is True
    lines = (tmp_path / "coverage_compare.csv").read_text().splitlines()
    assert lines[1] == "beta_dB,ccdf_analytic,ccdf_sim,stderr"
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.all(np.diff(body[:, 1]) <= 1e-12)  # analytic CCDF nonincreasing
    assert _summary(tmp_path) == (
        f"kind=coverage_compare sup_norm={result['sup_norm']!r} tolerance=0.06 "
        "bound_direction=PASS status=PASS\n")


def test_coverage_compare_gate_failure(tmp_path):
    plan = _plan(tmp_path, kind="coverage_compare", grid=(0.0, 10.0),
                 trials=300, tolerance=1e-9)
    with pytest.raises(experiments.ToleranceExceeded) as err:
        experiments.run_plan(plan)
    assert err.value.tolerance == 1e-9
    # artifacts are still written, marked FAIL, before the gate raises
    assert os.path.exists(os.path.join(str(tmp_path), "coverage_compare.csv"))
    assert _summary(tmp_path) == (
        f"kind=coverage_compare sup_norm={err.value.measure!r} tolerance=1e-09 "
        "bound_direction=PASS status=FAIL\n")


def test_se_compare(tmp_path):
    plan = _plan(tmp_path, kind="se_compare",
                 grid=tuple(np.arange(0.0, 12.1, 1.0)),
                 trials=1500, tolerance=0.08)
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS"
    lines = (tmp_path / "se_compare.csv").read_text().splitlines()
    assert lines[1] == ("eta_bps_hz,cdf_full,stderr_full,cdf_losball,"
                        "stderr_losball,cdf_analytic")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.all(np.diff(body[:, 1]) >= 0.0)   # CDFs nondecreasing in t
    assert np.all(np.diff(body[:, 5]) >= -1e-12)
    assert _summary(tmp_path) == (f"kind=se_compare sup_norm={result['sup_norm']!r} "
                                  "tolerance=0.08 status=PASS\n")


def test_nakagami_sweep(tmp_path):
    plan = _plan(tmp_path, kind="nakagami_sweep", grid=(1, 2), trials=2000)
    result = experiments.run_plan(plan)
    assert result["status"] == "PASS"
    assert (result["analytic_nondecreasing"] and result["mc_trend"]
            and result["upper_bound"])
    lines = (tmp_path / "nakagami_sweep.csv").read_text().splitlines()
    assert lines[1] == "m,se_analytic,se_mc,stderr"
    assert lines[2].startswith("1,")
    assert _summary(tmp_path) == (
        "kind=nakagami_sweep analytic_nondecreasing=PASS mc_trend=PASS "
        "upper_bound=PASS tolerance=2.0 status=PASS\n")


def test_nakagami_sweep_draws_each_deployment_once(tmp_path, monkeypatch):
    # one Monte Carlo run serves every order: the plan takes one substream
    # per trial, not one per trial and order
    taken = []
    substreams = mcsim._substreams

    def counting(*args):
        for rng in substreams(*args):
            taken.append(rng)
            yield rng

    monkeypatch.setattr(mcsim, "_substreams", counting)
    plan = _plan(tmp_path, kind="nakagami_sweep", grid=(1, 2, 4, 8, 16), trials=50,
                 tolerance=1e9)
    assert experiments.run_plan(plan)["status"] == "PASS"
    assert len(taken) == plan.trials


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_default_tolerance_per_kind(tmp_path, kind):
    # tolerance=None gates at the kind's default; losball_sweep has no gate
    default = {"losball_sweep": None, "mean_count_sweep": "3.0",
               "coverage_compare": "0.03", "se_compare": "0.05",
               "nakagami_sweep": "2.0"}[kind]
    grid = (1, 2) if kind == "nakagami_sweep" else (5.0, 10.0)
    try:
        experiments.run_plan(_plan(tmp_path, kind=kind, grid=grid, trials=2))
    except experiments.ToleranceExceeded as err:
        assert repr(err.tolerance) == default
    fields = dict(word.split("=", 1) for word in _summary(tmp_path).split())
    assert fields.get("tolerance") == default


@pytest.mark.parametrize("kind, field", [
    (kind, "density_family") for kind in experiments.KINDS if kind != "losball_sweep"
] + [("losball_sweep", "tolerance")])
def test_field_the_kind_never_reads_refused_before_rows(tmp_path, monkeypatch,
                                                        kind, field):
    # such a plan used to write its CSV and status=PASS, ignoring the field
    def not_called(*args):
        raise AssertionError("a row was computed before the plan was refused")

    monkeypatch.setitem(experiments._KINDS, kind,
                        (not_called, *experiments._KINDS[kind][1:]))
    grid = (1, 2) if kind == "nakagami_sweep" else (5.0, 10.0)
    value = (0.5,) if field == "density_family" else 1e-9
    with pytest.raises(model.ConfigError) as err:
        experiments.run_plan(_plan(tmp_path, kind=kind, grid=grid, **{field: value}))
    assert err.value.violation == "UnusedPlanField"
    assert field in str(err.value)
    assert not os.listdir(tmp_path)


def test_rerun_byte_identical(tmp_path):
    out = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        experiments.run_plan(_plan(d, kind="mean_count_sweep", grid=(3.0,),
                                   trials=300, tolerance=4.0))
        out.append((d / "mean_count.csv").read_bytes())
    assert out[0] == out[1]


def test_figure_configs(tmp_path):
    for fid in experiments.FIGURE_IDS:
        path = experiments.emit_figure_config(fid, str(tmp_path / f"{fid}.cfg"))
        text = Path(path).read_text()
        assert "alpha_L = REQUIRED" in text
        assert "noise_power = REQUIRED" in text
        # loading must refuse until the user fills the placeholders
        with pytest.raises(model.ConfigError) as err:
            model.load_config(path)
        assert err.value.violation == "MissingRequiredValue"
        filled = (text.replace("REQUIRED", "3.0")
                      .replace("alpha_N = 3.0", "alpha_N = 3.4"))
        cfg = model.parse_config_text(filled)
        assert cfg.blockage_diameter == 0.3 and cfg.net_radius == 10.0

    fig7 = experiments.figure_config_text("fig7")
    assert "p_t = 0.8" in fig7 and "lambda = 3" in fig7 and "m = 3" in fig7
    fig8 = experiments.figure_config_text("fig8")
    assert "lambda = 2" in fig8 and "p_t = 1" in fig8
    with pytest.raises(model.ConfigError) as err:
        experiments.figure_config_text("fig1")
    assert err.value.violation == "UnknownFigure"
