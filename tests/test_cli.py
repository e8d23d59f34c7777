"""Command-line front end: grids, subcommands, env overrides, exit codes."""

import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import BASE_KEYS
from wearnet import analytic, cli, model
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
                "-1e308:1e308:1", "", ",", " , "):
        with pytest.raises(model.ConfigError) as err:
            cli.parse_grid(bad)
        assert err.value.violation == "MalformedGrid"


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


def test_se_cdf_command(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "se-cdf",
                   "--mode", "losball", "--trials", "300", "--t-grid", "0:6:1"])
    assert rc == 0
    lines = (tmp_path / "se_cdf_losball.csv").read_text().splitlines()
    assert lines[1] == "eta_bps_hz,cdf,stderr"


def test_compare_command(tmp_path):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--kind", "mean-count", "--trials", "300",
                   "--tolerance", "4", "--lambda-grid", "2,3"])
    assert rc == 0
    assert (tmp_path / "mean_count.csv").exists()


def test_compare_tolerance_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "compare",
                   "--kind", "coverage", "--trials", "200",
                   "--tolerance", "1e-9", "--beta-grid-dB", "0:10:5"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(["--out-dir", str(tmp_path), "simulate", "--mode", "losball"])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, alpha_N=1.5)
    rc = cli.main(["--config", cfg, "--out-dir", str(tmp_path), "coverage"])
    assert rc == 2
    assert "AlphaNlosTooSmall" in capsys.readouterr().err


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
    # diverges: a named ConfigError, not a ZeroDivisionError
    cfg = _write_config(tmp_path, **{"lambda": "1e6"})
    out = tmp_path / "out"
    for args in (["coverage"], ["simulate", "--mode", "losball", "--trials", "50"]):
        rc = cli.main(["--config", cfg, "--out-dir", str(out)] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DensityTooHigh") and "Traceback" not in err
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
