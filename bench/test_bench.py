"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The smoke runs use tiny trial counts; they take about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _layer_names():
    tracer = tracing.Tracer(child_dir=None)
    return list(tracing.layer_metrics(tracer, workers=1)) + ["trace.overhead_s"]


def test_benchmark_json_names_match_the_harness():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == _layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_smoke_reports_every_end_to_end_metric():
    result = _result(_run("--smoke", "--workload", "all", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS)
    for name in WORKLOADS:
        for metric, unit in run.E2E_UNITS.items():
            entry = result["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0.0


def test_traced_counts_repeat_exactly():
    first, second = (_result(_run("--smoke", "--workload", "all", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    for name in WORKLOADS:
        for metric in _layer_names():
            key = f"{name}.{metric}"
            assert "absent" not in first["metrics"][key], key
            if tracing.is_count(metric):
                assert first["metrics"][key] == second["metrics"][key], key
    # the pool workers' spans reach the parent's trace
    assert first["metrics"]["meancount_fig5_par.geometry.classify_los.calls"]["value"] \
        == WORKLOADS["meancount_fig5_par"].trials_run(
            WORKLOADS["meancount_fig5_par"].smoke_trials)


def test_missing_layer_is_absent_and_wrappers_are_removed(monkeypatch, tmp_path):
    from wearnet import analytic, mcsim
    monkeypatch.delattr(analytic, "adaptive_gauss_legendre")
    original = mcsim.classify_los
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert mcsim.classify_los is not original
    finally:
        tracer.uninstall()
    assert mcsim.classify_los is original
    assert tracer.absent == ["quadrature.adaptive_gauss_legendre"]
    metrics = tracing.layer_metrics(tracer, workers=1)
    assert metrics["quadrature.adaptive_gauss_legendre.fevals"] is None
    assert metrics["analytic.laplace_term.calls"] == 0


def test_timings_scale_with_the_probe():
    # two repetitions on a host twice as slow in wall time and twice as
    # fast in CPU time as the reference
    reps = [{"wall_s": wall, "setup_s": 0.2, "cpu_s": 1.5, "trials": 1000,
             "probe_wall_s": [calibrate.REF_WALL_S * 2.0] * 2,
             "probe_cpu_s": [calibrate.REF_CPU_S * 0.5] * 2}
            for wall in (1.5, 2.5)]
    timings = calibrate.at_reference(reps)
    assert timings["wall_s"] == pytest.approx(1.0)
    assert timings["setup_s"] == pytest.approx(0.1)
    assert timings["trials_per_s"] == pytest.approx(1000.0)
    assert timings["cpu_s"] == pytest.approx(3.0)
    walls, cpus = calibrate.probe(3)
    assert len(walls) == len(cpus) == 3 and min(walls) > 0.0


def test_self_time_excludes_children():
    tracer = tracing.Tracer(child_dir=None)
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 2.0, 3.0, 1], ["leaf", 5.0, 6.0, 0]]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"]["self_s"] == pytest.approx(3.0)
    assert summary["inner"]["busy_s"] == pytest.approx(3.0)  # nested call not re-counted
    assert summary["leaf"]["spans"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "se_fig6", "--seed", "1", "--seconds", "5",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
