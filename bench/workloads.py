"""Benchmark workloads and the checks their artifacts must pass.

Every workload is one ``experiments.run_plan`` call on an acceptance-test
setup: the canonical figure config with its four REQUIRED constants filled
as tests/test_acceptance.py fills them, the gate's grid and tolerance, and
the gate's seed plus the benchmark's ``--seed`` as the plan seed (so seed 0
is the acceptance seed).  Trial counts are smaller than the acceptance
suite's so that a repetition takes a few seconds; at these counts every gate
passes at its acceptance seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

# fills for the REQUIRED placeholders, as the acceptance suite sets them
FILLS = {"alpha_L": "3.2", "alpha_N": "3.4", "R0": "0.25", "noise_power": "1.0"}


def _arange(start, stop, step):
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(n))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    figure: str
    grid: tuple
    gate_seed: int
    tolerance: float
    trials: int
    smoke_trials: int
    workers: int
    csv_name: str
    columns: tuple
    simulations: int  # simulation calls of `trials` each in one run_plan
    # host-speed probe chunks (calibrate.py) on each side of a repetition,
    # about a sixth of its length, so that the probe samples the host's
    # speed over about a third of the run
    probe_chunks: int

    def plan_seed(self, seed):
        return self.gate_seed + seed

    def trials_run(self, trials):
        """MC trials or deployments one run_plan call draws in total."""
        return trials * self.simulations


WORKLOADS = {w.name: w for w in (
    # per-trial overhead of the losball engine; the analytic side is small
    Workload("coverage_fig7", "coverage_compare", "fig7",
             _arange(-10.0, 30.0, 1.0), 104, 0.03, 40_000, 2_000, 1,
             "coverage_compare.csv",
             ("beta_dB", "ccdf_analytic", "ccdf_sim", "stderr"), 1, 6),
    # full-mode geometry: classify_los is most of the wall time
    Workload("se_fig6", "se_compare", "fig6",
             _arange(0.0, 12.0, 0.25), 105, 0.05, 2_500, 100, 1,
             "se_compare.csv",
             ("eta_bps_hz", "cdf_full", "stderr_full", "cdf_losball",
              "stderr_losball", "cdf_analytic"), 2, 10),
    # the analytic route: nested quadrature of the coverage bound
    Workload("nakagami_fig8", "nakagami_sweep", "fig8",
             (1, 2, 4, 8, 16), 106, 2.0, 2_000, 200, 1,
             "nakagami_sweep.csv", ("m", "se_analytic", "se_mc", "stderr"), 5,
             16),
    # the only workload that starts the process pool.  It is left out of
    # BENCHMARK.json: four workloads fit the run budget only with runs too
    # short to keep nakagami_fig8 steady.  `--workload all` and the smoke
    # test still run it, traced workers included.
    Workload("meancount_fig5_par", "mean_count_sweep", "fig5",
             (1.0, 2.0, 3.0, 4.0, 5.0), 102, 3.0, 400, 40, 2,
             "mean_count.csv",
             ("lambda", "mean_los_analytic", "mean_los_mc", "stderr"), 5, 6),
)}


def build_plan(experiments, model, workload, seed, trials, out_dir):
    """The workload's ExperimentPlan, built the way the acceptance suite does."""
    values = model.parse_key_values(experiments.figure_config_text(workload.figure))
    values.update(FILLS)
    return experiments.ExperimentPlan(
        kind=workload.kind, config=model.config_from_keys(values),
        grid=workload.grid, out_dir=out_dir, seed=workload.plan_seed(seed),
        trials=trials, tolerance=workload.tolerance, workers=workload.workers)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _gate(workload, cols):
    """The gate recomputed from the CSV: True when it passes."""
    tol = workload.tolerance
    if workload.kind == "coverage_compare":
        a, sim, se = cols["ccdf_analytic"], cols["ccdf_sim"], cols["stderr"]
        sup = max(abs(x - y) for x, y in zip(a, sim))
        return sup <= tol and all(x >= y - 3.0 * s for x, y, s in zip(a, sim, se))
    if workload.kind == "se_compare":
        return max(abs(x - y) for x, y in zip(cols["cdf_full"], cols["cdf_losball"])) <= tol
    if workload.kind == "nakagami_sweep":
        a, mc, err = cols["se_analytic"], cols["se_mc"], cols["stderr"]
        pairs = range(len(a) - 1)
        return (all(a[i + 1] - a[i] >= 0.0 for i in pairs)
                and all(mc[i + 1] - mc[i] >= -tol * math.hypot(err[i + 1], err[i])
                        for i in pairs)
                and all(x >= y - tol * e for x, y, e in zip(a, mc, err)))
    a, mc, se = cols["mean_los_analytic"], cols["mean_los_mc"], cols["stderr"]
    return max((abs(y - x) / s for x, y, s in zip(a, mc, se) if s > 0.0),
               default=0.0) <= tol


def _monotone(values, increasing):
    steps = zip(values, values[1:])
    return all((b >= a) if increasing else (b <= a) for a, b in steps)


def check_artifacts(workload, plan_seed, out_dir):
    """Problems found in one run's artifacts, and the gate verdict they hold.

    Checks the CSV header line, one row per grid point in grid order,
    finite values, (C)CDF columns in [0, 1] and monotone, and that the
    verdict the program wrote to summary.txt is the gate recomputed from
    the CSV at the acceptance tolerance.  Returns (problems, verdict).
    """
    problems = []
    path = os.path.join(out_dir, workload.csv_name)
    with open(path, encoding="ascii", newline="") as fh:
        first = fh.readline().split()
        rows = list(csv.reader(fh))
    if len(first) != 3 or first[0] != "#" or first[2] != f"seed={plan_seed}":
        problems.append(f"bad comment line {first}")
    if tuple(rows[0]) != workload.columns:
        problems.append(f"bad header {rows[0]}")
    body = [[float(v) for v in row] for row in rows[1:]]
    if len(body) != len(workload.grid):
        problems.append(f"{len(body)} rows for {len(workload.grid)} grid points")
        return problems, None
    cols = {name: [row[i] for row in body] for i, name in enumerate(workload.columns)}
    if not all(math.isfinite(v) for row in body for v in row):
        problems.append("non-finite value")
        return problems, None
    if any(abs(x - g) > 1e-9 for x, g in zip(cols[workload.columns[0]], workload.grid)):
        problems.append("first column is not the grid")
    for name, values in cols.items():
        if name.startswith(("ccdf_", "cdf_")):
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"{name} outside [0, 1]")
            if not _monotone(values, increasing=name.startswith("cdf_")):
                problems.append(f"{name} not monotone")
    verdict = "PASS" if _gate(workload, cols) else "FAIL"
    with open(os.path.join(out_dir, "summary.txt"), encoding="ascii") as fh:
        written = fh.read().split()
    if f"status={verdict}" not in written:
        problems.append(f"summary.txt {written} disagrees with recomputed {verdict}")
    return problems, verdict
