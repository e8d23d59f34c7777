"""Command-line front end: grids, subcommands, env overrides, exit codes."""

import concurrent.futures
import dataclasses
import importlib.metadata
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import BASE_KEYS, FIGURE_FILLS
from wearnet import analytic, cli, experiments, mcsim, model
from wearnet.quadrature import QuadratureNotConverged

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _write_config(tmp_path, **overrides):
    values = dict(BASE_KEYS)
    values.update(overrides)
    path = tmp_path / "net.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()))
    return str(path)


def test_parse_grid_ranges():
    assert np.allclose(cli.parse_grid("1:3:0.5"), [1.0, 1.5, 2.0, 2.5, 3.0])
    assert cli.parse_grid("0:12:0.25").size == 49
    got = cli.parse_grid("-10:30:1")
    assert got[0] == -10.0 and got[-1] == 30.0 and got.size == 41
    assert np.array_equal(cli.parse_grid("1,2,4"), [1.0, 2.0, 4.0])
    for bad in ("1:2", "1:5:0", "5:1:1", "a,b", "nan", "1,inf", "0:inf:1",
                "-1e308:1e308:1", "", ",", " , ", "1:2:1e-300", "0:1e300:1"):
        with pytest.raises(model.ConfigError) as err:
            cli.parse_grid(bad)
        assert err.value.violation == "MalformedGrid"


_GLOBAL_DEFAULTS = {"config": None, "out_dir": ".", "seed": None, "threads": None}


@pytest.mark.parametrize("argv, defaults", [
    (["losball"], {"rnet_grid": "1:20:0.5", "lambda_family": None}),
    (["coverage"], {"beta_grid_db": "-10:30:1", "out": None}),
    (["simulate", "--mode", "full"],
     {"mode": "full", "trials": 10000, "beta_grid_db": "-10:30:1", "out": None}),
    (["se-cdf", "--mode", "losball"],
     {"mode": "losball", "trials": 10000, "t_grid": "0:12:0.25", "out": None}),
    (["compare", "--kind", "se"],
     {"kind": "se", "trials": 10000, "tolerance": None, "beta_grid_db": "-10:30:1",
      "t_grid": "0:12:0.25", "m_grid": "1,2,4,8,16", "lambda_grid": "1,2,3,4,5"}),
    (["figure-config", "--figure", "fig7"], {"figure": "fig7", "out": None}),
], ids=["losball", "coverage", "simulate", "se-cdf", "compare", "figure-config"])
def test_parsed_defaults(monkeypatch, argv, defaults):
    # every subcommand's flags, dests and defaults; main() then resolves
    # the seed to 0 and the threads to 1 when neither flag nor environment
    # sets them
    for name in ("CONFIG", "OUT_DIR", "SEED", "THREADS"):
        monkeypatch.delenv("WEARNET_" + name, raising=False)
    want = {"command": argv[0], **_GLOBAL_DEFAULTS, **defaults}
    assert vars(cli.build_parser().parse_args(argv)) == want
    seen = []
    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        lambda args: seen.append(vars(args)) or [])
    assert cli.main(argv) == 0
    assert seen == [{**want, "seed": 0, "threads": 1}]


@pytest.mark.parametrize("command", ["simulate", "se-cdf"])
def test_mode_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --mode" in capsys.readouterr().err


def test_figure_config_command(tmp_path):
    rc = cli.main(["--out-dir", str(tmp_path), "figure-config", "--figure", "fig7"])
    assert rc == 0
    text = (tmp_path / "fig7.cfg").read_text()
    assert "p_t = 0.8" in text and "alpha_L = REQUIRED" in text


def test_losball_command(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "losball",
                   "--rnet-grid", "2:4:1", "--lambda-family", "1,3"])
    assert rc == 0
    lines = (tmp_path / "losball.csv").read_text().splitlines()
    assert lines[1] == "lambda,W,r_net,mean_los,r_los,r_los_limit"
    assert len(lines) == 2 + 6  # two densities x three radii


def test_losball_command_at_overflowing_density(tmp_path):
    # lambda^2 overflows above about 1.3e154; the parsed family holds numpy
    # scalars, which used to warn there.  The rounded radius is 0.0
    cfg = _write_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "losball",
                       "--rnet-grid", "1:3:1", "--lambda-family", "1e300"])
    assert rc == 0
    rows = (tmp_path / "losball.csv").read_text().splitlines()[2:]
    assert [row.split(",")[4] for row in rows] == ["0.0"] * 3


def test_coverage_command(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "custom" / "cov.csv"
    # negative grid starts need the --opt=value form or argparse eats the dash
    rc = cli.main(["--config", cfg, "coverage", "--beta-grid-dB=-5:15:5",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "beta_dB,ccdf_analytic"
    assert len(lines) == 2 + 5


def test_simulate_command(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "--seed", "3",
                   "simulate", "--mode", "losball", "--trials", "300",
                   "--beta-grid-dB=-5:15:5"])
    assert rc == 0
    lines = (tmp_path / "simulate_losball.csv").read_text().splitlines()
    assert lines[0].endswith("seed=3")
    assert lines[1] == "beta_dB,ccdf,stderr"
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.all(np.diff(body[:, 1]) <= 0.0)  # empirical CCDF nonincreasing


def test_simulate_full_at_zero_density_on_an_overflowing_disk(tmp_path):
    # the disk's area pi r_net^2 passes the float range; the empty PPP
    # still has mean 0
    cfg = _write_config(tmp_path, **{"lambda": 0.0, "r_net": 1e200})
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "simulate",
                   "--mode", "full", "--trials", "50", "--beta-grid-dB=-5:15:5"])
    assert rc == 0
    rows = (tmp_path / "simulate_full.csv").read_text().splitlines()[2:]
    assert len(rows) == 5


def test_se_cdf_command(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "se-cdf",
                   "--mode", "losball", "--trials", "300", "--t-grid", "0:6:1"])
    assert rc == 0
    lines = (tmp_path / "se_cdf_losball.csv").read_text().splitlines()
    assert lines[1] == "eta_bps_hz,cdf,stderr"


def test_compare_command(tmp_path):
    # each kind parses only its own grid: mean-count never reads --m-grid
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--kind", "mean-count", "--trials", "300",
                   "--tolerance", "4", "--lambda-grid", "2,3", "--m-grid", "abc"])
    assert rc == 0
    assert (tmp_path / "mean_count.csv").exists()


def test_compare_tolerance_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--kind", "coverage", "--trials", "200",
                   "--tolerance", "1e-9", "--beta-grid-dB", "0:10:5"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("kind, tolerance, violation", [
    ("coverage", "nan", "ValueNotFinite"), ("coverage", "-1", "ToleranceNegative"),
    ("mean-count", "nan", "ValueNotFinite"), ("mean-count", "-1", "ToleranceNegative"),
])
def test_bad_tolerance_exit_code(tmp_path, capsys, monkeypatch, kind,
                                 tolerance, violation):
    # refused by name before any row runs: no simulation, no artifact
    def not_called(*args, **kwargs):
        raise AssertionError("simulated before the tolerance was refused")

    monkeypatch.setattr(mcsim, "_map_trials", not_called)
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out), "compare",
                   "--kind", kind, "--trials", "50", f"--tolerance={tolerance}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {violation}: ") and "Traceback" not in err
    assert not out.exists()


def test_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(["--out-dir", str(tmp_path), "simulate", "--mode", "losball"])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, alpha_N=1.5)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "coverage"])
    assert rc == 2
    assert "AlphaNlosTooSmall" in capsys.readouterr().err


@pytest.mark.parametrize("key,violation", [("Gt_dB", "ValueNotFinite"),
                                           ("gt_dB", "MainGainBelowSideGain")])
def test_overflowing_gain_exit_code(tmp_path, capsys, key, violation):
    # 4000 dB is a linear gain of +inf, refused by name with exit 2, where
    # Python's float power used to raise OverflowError (exit 3)
    cfg = _write_config(tmp_path, **{key: "4000"})
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "coverage"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {violation}") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("m", "inf"), ("m", "-inf"), ("m", "1e400"), ("m", "nan"),
    ("m_nlos", "inf"), ("WEARNET_M_NLOS", "inf"), ("WEARNET_M", "nan"),
])
def test_non_finite_nakagami_order_exit_code(tmp_path, capsys, monkeypatch,
                                             key, value):
    # int() of an infinite order raised a bare OverflowError (exit 3), and
    # of a NaN one a ValueError with no violation name (exit 2)
    if key.startswith("WEARNET_"):
        monkeypatch.setenv(key, value)
        cfg = _write_config(tmp_path)
    else:
        cfg = _write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out), "coverage"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueNotFinite: ") and "Traceback" not in err
    assert not out.exists()


def test_unreadable_config_exit_code(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "absent.cfg"),
                   "--out-dir", str(tmp_path), "coverage"])
    assert rc == 2


def test_env_config_and_overrides(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    monkeypatch.setenv("WEARNET_CONFIG", cfg)
    monkeypatch.setenv("WEARNET_OUT_DIR", str(tmp_path))
    monkeypatch.setenv("WEARNET_LAMBDA", "1.0")
    rc = cli.main(["losball", "--rnet-grid", "5:5:1"])
    assert rc == 0
    # the sweep ran at the env-overridden density, not the file's 3.0
    row = (tmp_path / "losball.csv").read_text().splitlines()[2]
    assert row.startswith("1.0,")


def test_env_gain_keys_that_differ_in_case(tmp_path, monkeypatch, capsys):
    # Gt_dB and gt_dB share an upper-case form: each keeps its exact
    # spelling, and the shared WEARNET_GT_DB is refused by name
    cfg = _write_config(tmp_path)
    base = cli.load_config_with_env(cfg)
    monkeypatch.setenv("WEARNET_Gt_dB", "7")
    cfg_env = cli.load_config_with_env(cfg)
    assert cfg_env.tx_pattern.main_gain == model.db_to_linear(7.0)
    assert cfg_env == dataclasses.replace(
        base, tx_pattern=dataclasses.replace(base.tx_pattern,
                                             main_gain=cfg_env.tx_pattern.main_gain))
    monkeypatch.delenv("WEARNET_Gt_dB")
    for shared, pair in (("WEARNET_GT_DB", "WEARNET_Gt_dB or WEARNET_gt_dB"),
                         ("WEARNET_GR_DB", "WEARNET_Gr_dB or WEARNET_gr_dB")):
        monkeypatch.setenv(shared, "7")
        rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "coverage"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: AmbiguousEnvKey: {shared} ") and pair in err
        monkeypatch.delenv(shared)


def test_env_seed_matches_flag(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    args = ["simulate", "--mode", "losball", "--trials", "200",
            "--beta-grid-dB", "0:10:5"]
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["--config", cfg, "--out-dir", str(d1), "--seed", "9"] + args) == 0
    monkeypatch.setenv("WEARNET_SEED", "9")
    assert cli.main(["--config", cfg, "--out-dir", str(d2)] + args) == 0
    assert ((d1 / "simulate_losball.csv").read_bytes()
            == (d2 / "simulate_losball.csv").read_bytes())


@pytest.mark.parametrize("name", ["WEARNET_SEED", "WEARNET_THREADS"])
def test_malformed_env_integer_exit_code(tmp_path, monkeypatch, capsys, name):
    cfg = _write_config(tmp_path)
    monkeypatch.setenv(name, "abc")
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "coverage"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidNumber") and name in err
    # an explicit flag needs no environment value
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "--seed", "1",
                   "--threads", "1", "coverage"])
    assert rc == 0


@pytest.mark.parametrize("args", [
    ["simulate", "--mode", "losball", "--trials", "50"],
    ["compare", "--kind", "coverage", "--trials", "50"],
], ids=lambda args: args[0])
def test_negative_seed_exit_code(tmp_path, monkeypatch, capsys, args):
    # refused by name before any work, from the flag or the environment
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    for seed_args in (["--seed", "-1"], []):
        if not seed_args:
            monkeypatch.setenv("WEARNET_SEED", "-1")
        rc = cli.main(["--config", cfg, "--out-dir", str(out)] + seed_args + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SeedInvalid") and "Traceback" not in err
        assert not out.exists()


def test_negative_threads_exit_code(tmp_path, monkeypatch, capsys):
    # refused by name before any work, from the flag or the environment
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    args = ["simulate", "--mode", "losball", "--trials", "50"]
    for threads_args in (["--threads", "-2"], []):
        if not threads_args:
            monkeypatch.setenv("WEARNET_THREADS", "-1")
        rc = cli.main(["--config", cfg, "--out-dir", str(out)] + threads_args + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: WorkersInvalid") and "Traceback" not in err
        assert not out.exists()
    # so is a trial count out of range, before the config file is read
    monkeypatch.delenv("WEARNET_THREADS")
    missing = str(tmp_path / "missing.cfg")
    for command in ("simulate", "se-cdf"):
        rc = cli.main(["--config", missing, "--out-dir", str(out), command,
                       "--mode", "full", "--trials", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TrialCountInvalid") and "Traceback" not in err
        assert not out.exists()


def test_unwritable_output_exit_code(tmp_path, capsys):
    # an --out-dir that is a regular file cannot hold the artifacts
    cfg = _write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    rc = cli.main(["--config", cfg, "--out-dir", str(out), "coverage",
                   "--beta-grid-dB", "0:10:5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert "Traceback" not in captured.err and captured.out == ""
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("grid", ["2.5", "0,1"])
def test_compare_rejects_non_integer_m_grid(tmp_path, capsys, grid):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--kind", "nakagami", "--trials", "50", "--m-grid", grid])
    assert rc == 2
    assert "NakagamiOrderInvalid" in capsys.readouterr().err
    assert not (tmp_path / "nakagami_sweep.csv").exists()


@pytest.mark.parametrize("args", [
    ["coverage", "--beta-grid-dB", "nan"],
    ["simulate", "--mode", "losball", "--trials", "50", "--beta-grid-dB", "nan,inf"],
    ["compare", "--kind", "nakagami", "--trials", "50", "--m-grid", "1,inf"],
    ["losball", "--rnet-grid", "0:inf:1"],
], ids=lambda args: args[0])
def test_non_finite_grid_exit_code(tmp_path, capsys, args):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out)] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedGrid") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args,csv,columns,at_inf,inf_from", [
    (["se-cdf", "--mode", "losball", "--trials", "50", "--t-grid", "0:2048:1024"],
     "se_cdf_losball.csv", [1], 1.0, 1024),
    (["compare", "--kind", "se", "--trials", "50", "--t-grid", "0:2048:1024"],
     "se_compare.csv", [1, 3, 5], 1.0, 1024),
    (["coverage", "--beta-grid-dB", "0:4000:1000"], "coverage.csv", [1], 0.0, 4000),
    (["simulate", "--mode", "losball", "--trials", "50",
      "--beta-grid-dB", "0:4000:1000"], "simulate_losball.csv", [1], 0.0, 4000),
], ids=["se-cdf", "compare-se", "coverage", "simulate"])
def test_overflowing_threshold_is_plus_inf(tmp_path, capsys, args, csv, columns,
                                           at_inf, inf_from):
    # 2^1024 and 10^400 overflow a float to the SINR threshold +inf, which
    # no SINR exceeds: an answer, without an overflow RuntimeWarning (an
    # error under this suite)
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path)] + args)
    assert rc == 0
    assert capsys.readouterr().err == ""
    body = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=2)
    at_plus_inf = body[body[:, 0] >= inf_from][:, columns]
    assert at_plus_inf.size and np.all(at_plus_inf == at_inf)


@pytest.mark.parametrize("args,csv", [
    (["coverage"], "coverage.csv"),
    (["simulate", "--mode", "losball", "--trials", "50"], "simulate_losball.csv"),
], ids=["coverage", "simulate"])
def test_plus_inf_threshold_without_noise_or_nlos_power(tmp_path, capsys, args, csv):
    # fig7, no noise, lambda = 1e-300: the LOS ball fills the disk, so
    # sigma2_total == 0 and every finite threshold is exceeded; +inf is
    # exceeded by none, by rule, without computing inf * 0
    values = model.parse_key_values(experiments.figure_config_text("fig7"))
    values.update(FIGURE_FILLS, noise_power="0.0", **{"lambda": "1e-300"})
    cfg = tmp_path / "fig7.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path)] + args
                  + ["--beta-grid-dB", "0:4000:1000"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    body = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=2)
    assert list(body[:, 1]) == [1.0, 1.0, 1.0, 1.0, 0.0]


@pytest.mark.parametrize("R0, grid, want", [
    ("1e-200", "0:4000:1000", [1.0, 1.0, 1.0, 1.0, 0.0]),
    ("1e100", "-10:30:20", [0.0, 0.0, 0.0]),
], ids=["tiny", "huge"])
def test_reference_distance_at_the_ends_of_the_float_range(tmp_path, capsys, R0,
                                                           grid, want):
    # R0^alpha_L underflows to 0 at R0 = 1e-200, where the threshold +inf
    # gave inf * 0 = NaN with a RuntimeWarning (an error under this suite),
    # and overflows at R0 = 1e100, where Python's float power raised
    # OverflowError (exit 3).  An infinite SINR exceeds every finite
    # threshold and not +inf, a vanishing one exceeds none: the analytic
    # column equals the simulated one
    cfg = _write_config(tmp_path, R0=R0)
    columns = []
    for args, csv in ((["coverage"], "coverage.csv"),
                      (["simulate", "--mode", "losball", "--trials", "50"],
                       "simulate_losball.csv")):
        rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path)] + args
                      + [f"--beta-grid-dB={grid}"])
        assert rc == 0
        columns.append(list(np.loadtxt(tmp_path / csv, delimiter=",", skiprows=2)[:, 1]))
    assert capsys.readouterr().err == ""
    assert columns == [want, want]


@pytest.mark.parametrize("args, csv", [
    (["--kind", "coverage", "--beta-grid-dB=-10:30:20"], "coverage_compare.csv"),
    (["--kind", "nakagami", "--m-grid", "1,2"], "nakagami_sweep.csv"),
], ids=["coverage", "nakagami"])
def test_compare_with_vanishing_signal_power(tmp_path, capsys, args, csv):
    # R0 = 1e100 used to end both comparisons in a bare OverflowError,
    # exit 3; both routes give 0 and the gate holds
    cfg = _write_config(tmp_path, R0="1e100")
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--trials", "50"] + args)
    assert rc == 0
    assert capsys.readouterr().err == ""
    body = np.loadtxt(tmp_path / csv, delimiter=",", skiprows=2)
    assert np.all(body[:, 1:3] == 0.0)


@pytest.mark.parametrize("args", [
    ["coverage", "--beta-grid-dB", ","],
    ["simulate", "--mode", "losball", "--trials", "50", "--beta-grid-dB", ","],
    ["se-cdf", "--mode", "full", "--trials", "50", "--t-grid", ","],
    ["compare", "--kind", "se", "--trials", "50", "--t-grid", ","],
    ["losball", "--lambda-family", ","],
], ids=lambda args: args[0])
def test_empty_grid_exit_code(tmp_path, capsys, args):
    # a grid with no value is refused before anything runs or is written
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out)] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedGrid") and "Traceback" not in err
    assert not out.exists()


def test_negative_density_family_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out), "losball",
                   "--lambda-family", "1,-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DensityNegative") and "Traceback" not in err
    assert not out.exists()


def test_vanishing_density_gives_the_empty_network(tmp_path, capsys):
    # lambda = 1e-300 used to divide by an underflowed lambda^2; the LOS
    # ball now fills the network disk and the bound equals lambda = 0's
    curves = {}
    for lam in ("1e-300", "0"):
        cfg = _write_config(tmp_path, **{"lambda": lam})
        out = tmp_path / lam
        for args in (["coverage", "--beta-grid-dB=-10:30:10"],
                     ["simulate", "--mode", "losball", "--trials", "50"],
                     ["losball", "--rnet-grid", "2:4:1"]):
            assert cli.main(["--config", cfg, "--out-dir", str(out)] + args) == 0
        curves[lam] = (out / "coverage.csv").read_text().splitlines()[2:]
        sim = np.loadtxt(out / "simulate_losball.csv", delimiter=",", skiprows=2)
        assert np.all((sim[:, 1] >= 0.0) & (sim[:, 1] <= 1.0))
        r_los = [line.split(",")[4] for line in
                 (out / "losball.csv").read_text().splitlines()[2:]]
        assert r_los == ["2.0", "3.0", "4.0"]
    assert curves["1e-300"] == curves["0"]
    assert "Traceback" not in capsys.readouterr().err


def test_overwhelming_density_exit_code(tmp_path, capsys):
    # lambda = 1e6 shrinks the LOS ball to 0, where the mean NLOS power
    # diverges: a named ConfigError, not a ZeroDivisionError, and the same
    # one from a run split across workers
    cfg = _write_config(tmp_path, **{"lambda": "1e6"})
    out = tmp_path / "out"
    simulate = ["simulate", "--mode", "losball", "--trials", "50"]
    for args in (["coverage"], simulate, ["--threads", "2"] + simulate):
        rc = cli.main(["--config", cfg, "--out-dir", str(out)] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DensityTooHigh") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_undrawable_density_exit_code(tmp_path, capsys, monkeypatch, threads):
    # lambda = 1e300 puts more blockage centers on the deployment disk than
    # numpy's Poisson sampler can draw, and lambda = 1e16 more than one
    # array can hold: a named ConfigError raised in the calling process,
    # before any worker starts, for both geometric runs
    class NoPool:
        def __init__(self, *args, **kwargs):
            pytest.fail("a process pool started before the refusal")

    # _map_trials looks the pool up in concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    out = tmp_path / "out"
    for density in ("1e300", "1e16"):
        cfg = _write_config(tmp_path, **{"lambda": density})
        for args in (["simulate", "--mode", "full", "--trials", "1"],
                     ["compare", "--kind", "mean-count", "--trials", "2",
                      "--lambda-grid", density]):
            rc = cli.main(["--config", cfg, "--out-dir", str(out),
                           "--threads", threads] + args)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: DensityTooHigh") and "Traceback" not in err
    assert not out.exists()


def test_descending_grid_refused_before_trials(tmp_path, capsys, monkeypatch):
    # a threshold grid that goes down is refused by name before any trial
    # runs, not after all of them by empirical_ccdf's unnamed ValueError
    def no_trials(*args, **kwargs):
        pytest.fail("trials ran before the grid was refused")

    monkeypatch.setattr(mcsim, "_map_trials", no_trials)
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    for args in (["simulate", "--mode", "full", "--trials", "2000",
                  "--beta-grid-dB", "10,0"],
                 ["se-cdf", "--mode", "losball", "--trials", "2000",
                  "--t-grid", "2,1"]):
        rc = cli.main(["--config", cfg, "--out-dir", str(out)] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: GridNotAscending") and "Traceback" not in err
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a quadrature that runs out of panels is neither bad input (2) nor a
    # missed gate (1): it exits 3 with a one-line message, no traceback
    def not_converged(params):
        raise QuadratureNotConverged("no convergence after 4097 panels", 0.5, 1e-3)

    monkeypatch.setattr(analytic, "ergodic_spectral_efficiency", not_converged)
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", cfg, "--out-dir", str(out), "compare",
                   "--kind", "nakagami", "--trials", "10", "--m-grid", "1,2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: QuadratureNotConverged") and "Traceback" not in err
    assert not (out / "nakagami_sweep.csv").exists()



def test_nakagami_compare_without_noise_or_interference(tmp_path, capsys):
    # fig7 with no noise and a silent network: the analytic mean rate does
    # not exist and is refused by name, exit 2, before the t_max search
    # reaches t = 1024, the threshold +inf
    values = model.parse_key_values(experiments.figure_config_text("fig7"))
    values.update(FIGURE_FILLS, noise_power="0.0", p_t="0.0")
    cfg = tmp_path / "fig7.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--config", str(cfg), "--out-dir", str(out), "compare",
                       "--kind", "nakagami", "--trials", "20", "--m-grid", "1,2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SinrUnbounded: ") and "Warning" not in err
    assert not (out / "nakagami_sweep.csv").exists()


def test_nakagami_compare_with_overflowing_snr(tmp_path, capsys):
    # fig8 with R0 = 1e-100: Gt Gr R0^-alpha_L is past the float range,
    # where the engine's float power raised OverflowError (exit 3); both
    # routes now refuse the mean rate by name, exit 2
    values = model.parse_key_values(experiments.figure_config_text("fig8"))
    values.update(FIGURE_FILLS, R0="1e-100")
    cfg = tmp_path / "fig8.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out-dir", str(out), "compare",
                   "--kind", "nakagami", "--trials", "20", "--m-grid", "1,2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SinrUnbounded: ") and "Traceback" not in err
    assert not (out / "nakagami_sweep.csv").exists()


@pytest.mark.parametrize("args", [
    ["--kind", "mean-count", "--lambda-grid", "1,3", "--tolerance", "0.001"],
    ["--kind", "nakagami", "--m-grid", "1,2"],
], ids=["mean-count", "nakagami"])
def test_single_trial_compare_exit_code(tmp_path, capsys, args):
    # fig8 with one trial wrote stderr=inf and passed (status=PASS
    # max_z=0.0) though MC read 0.0 against an analytic 52.09; it exits 2
    # before any row runs and writes nothing
    values = model.parse_key_values(experiments.figure_config_text("fig8"))
    values.update(FIGURE_FILLS)
    cfg = tmp_path / "fig8.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out-dir", str(out), "compare",
                   "--trials", "1"] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TooFewTrials: ") and "Traceback" not in err
    assert not out.exists()


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    # a run numpy cannot allocate (fig6 at lambda = 1e9 asks for TiBs in
    # one array) is a bad argument, exit 2, not a missed gate: a one-line
    # message, no traceback.  The command is replaced, nothing is allocated
    def too_big(args):
        raise MemoryError("Unable to allocate 4.57 TiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "simulate", too_big)
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "simulate",
                   "--mode", "full", "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: MemoryError: Unable to allocate 4.57 TiB for an array\n"


@pytest.mark.parametrize("mode", [mcsim.FULL, mcsim.LOSBALL])
def test_simulate_without_noise_or_interference(tmp_path, mode):
    # no noise and a silent network: every SINR is +inf, on purpose and
    # without a divide-by-zero warning (an error under this suite), so
    # every threshold is exceeded
    cfg = _write_config(tmp_path, noise_power=0.0, p_t=0.0)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "simulate",
                   "--mode", mode, "--trials", "20", "--beta-grid-dB=0:20:10"])
    assert rc == 0
    lines = (tmp_path / f"simulate_{mode}.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[2:]] == ["1.0"] * 3


def _run_console_script(exe, out_dir):
    """Run a `wearnet` console script as its own process on this checkout.

    The child sees no WEARNET_* variable from the caller's environment and
    imports this tree's `src` first; it runs in `out_dir`, away from the tree.
    """
    out_dir.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEARNET_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([exe, "--out-dir", str(out_dir),
                           "figure-config", "--figure", "fig5"],
                          capture_output=True, text=True, env=env, cwd=out_dir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "alpha_L = REQUIRED" in (out_dir / "fig5.cfg").read_text()


def test_console_script_installed(tmp_path):
    # The command an install would put on PATH is the one pyproject.toml
    # declares, so build its launcher from there: the test needs no install.
    tomllib = pytest.importorskip("tomllib")
    with open(SRC_DIR.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "wearnet" in scripts, "pyproject.toml declares no 'wearnet' script"
    entry = importlib.metadata.EntryPoint(
        name="wearnet", value=scripts["wearnet"], group="console_scripts")
    assert entry.load() is cli.main

    # the launcher pip and setuptools write for a console_scripts entry point
    launcher = tmp_path / "wearnet"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {entry.module} import {entry.attr}\n"
                        "if __name__ == '__main__':\n"
                        f"    sys.exit({entry.attr}())\n")
    launcher.chmod(0o755)
    _run_console_script(str(launcher), tmp_path / "launcher")

    installed = shutil.which("wearnet")
    if installed:
        _run_console_script(installed, tmp_path / "installed")
