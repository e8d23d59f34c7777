"""Frozen sha256 of three small artifacts: the determinism contract, pinned.

Gate 10 only checks that a rerun reproduces its own bytes.  These hashes
also fail when a change moves any value in the artifact, e.g. a different
LOS classification, per-trial draw order or summation order.  They were
recorded before the nearest-first banded `classify_los` sweep, which
leaves every mask, and so every byte, unchanged.  Two Monte Carlo paths
that no CSV reaches are pinned the same way: the annulus interference
sampler and the interference column of `simulate_sinr_samples`, both
recorded before the per-trial sampler was folded into one trial loop.
The values hold for one numpy build and platform math library; a
toolchain whose trig or pow results differ in the last bit moves them too.
"""

import hashlib

import numpy as np
import pytest

from conftest import BASE_KEYS, figure_config
from wearnet import cli, experiments, losball, mcsim


def _se_compare_fig6(tmp_path):
    # both Monte Carlo modes and the analytic CDF at the fig6 setup
    plan = experiments.ExperimentPlan(
        kind="se_compare", config=figure_config("fig6"),
        grid=tuple(np.arange(0.0, 12.01, 0.25)), out_dir=str(tmp_path),
        seed=105, trials=200, tolerance=1.0)
    experiments.run_plan(plan)
    return tmp_path / "se_compare.csv"


def _mean_count_sweep(tmp_path):
    # pure full-mode geometry: one classify_los call per deployment
    plan = experiments.ExperimentPlan(
        kind="mean_count_sweep", config=figure_config("fig5"),
        grid=(1.0, 3.0, 5.0), out_dir=str(tmp_path), seed=102, trials=40,
        tolerance=1e9)
    experiments.run_plan(plan)
    return tmp_path / "mean_count.csv"


def _cli_simulate_full(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in BASE_KEYS.items()))
    assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "--seed", "7", "simulate", "--mode", "full",
                     "--trials", "200", "--beta-grid-dB=-10:30:2"]) == 0
    return tmp_path / "simulate_full.csv"


@pytest.mark.parametrize("build, sha256", [
    (_se_compare_fig6,
     "a3b501474e54dcaf1978c034891733075170247aae2e71a39573a40c94b4c97e"),
    (_mean_count_sweep,
     "8592ca4e4b6ccf13856ac7c818d2c10ee4baf22431643038a310eb34af35fe44"),
    (_cli_simulate_full,
     "2b83f6fe984e5883d899f0cc0e9c0523d3bc61edcad217eb0f4f39456f4b7dfe"),
], ids=["se_compare_fig6", "mean_count_sweep", "cli_simulate_full"])
def test_artifact_sha256_frozen(tmp_path, build, sha256):
    path = build(tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_annulus_interference_mean_frozen():
    cfg = figure_config("fig6")
    r_los = losball.los_ball_radius(cfg.density, cfg.blockage_diameter,
                                    cfg.net_radius)
    got = mcsim.sample_annulus_interference_mean(cfg, r_los, 200, 105)
    assert got == (12.191313554695668, 0.23088231304081908)


def test_losball_samples_sha256_frozen():
    # both columns, the SINR and the interference that entered it
    samples = mcsim.simulate_sinr_samples(mcsim.LOSBALL, figure_config("fig7"),
                                          300, 104)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == (
        "1f16f697da02812968c25fc3794263a76ec0d010a2ef940504532b5ae54b9d1f")
