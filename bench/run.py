"""wearnet benchmark: acceptance-setup plans timed end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --smoke [--trace 1]     # tiny trial counts, all workloads

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Each repetition is one ``experiments.run_plan`` call in a fresh
interpreter (bench/rep.py).  Repetitions of one run share the plan seed, so
their CSVs must match byte for byte.  A new repetition starts only while the
run is predicted to end within ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics.  The timings
are means over its repetitions stated at the reference host speed of
calibrate.py: the repetitions' total time over the total time of the probe
run right before and after each, times the probe's reference time.  The
host this benchmark was built on changes speed by tens of percent within
minutes, in CPU time as much as in wall time.  peak_rss_mb is the median.
The report keeps every repetition's raw timings and probe chunk times.

With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (exact counts must repeat
between them) and the tracing overhead, the difference of the median raw
traced and untraced wall times.

A repetition fails when it raises, when its artifacts fail a check (see
workloads.check_artifacts), when its CSV differs from the first
repetition's or its exact counts from the first traced repetition's, and,
at seed 0, which is the acceptance seed itself, when its gate misses.  At
other seeds a gate verdict is a statistical outcome, not a fault: the m=1
upper-bound check of nakagami_fig8, for one, is a one-sided 2-sigma test of
an exact equality and misses on about 2% of seeds.  There the verdict must
agree with the gate recomputed from the CSV, and misses are reported.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full report, with the
machine block and every repetition, is written to bench/out/.  A run whose
program cannot be found exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from tracing import is_count
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REP = os.path.join(BENCH_DIR, "rep.py")
# one BLAS thread: the plans do no large linear algebra, and idle pool
# threads spinning on a 2-core host take time from the one that works
REP_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
REP_TIMEOUT_S = 120  # repetitions take under 10 s on a 2-core Xeon; a run must end in 180 s

E2E_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "cpu_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_efficiency")):
        return "ratio"
    if metric.endswith("_us_per_trial"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def machine_block():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit,
            "loadavg_start": [float(x) for x in loadavg]}


def run_rep(workload, seed, trials, traced, out_dir):
    """Run one repetition; returns its JSON record, or one marked failed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, REP, workload.name, str(seed), str(trials), out_dir,
             "1" if traced else "0", repr(spawned)],
            cwd=ROOT, env=REP_ENV, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": traced, "error": f"timed out after {REP_TIMEOUT_S} s",
                "elapsed": time.monotonic() - spawned}
    finally:
        elapsed = time.monotonic() - spawned
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"trace": traced, "elapsed": elapsed,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed"] = elapsed
    return rep


def rep_failures(reps, strict_gate):
    """Mark every repetition that failed; returns the number failed.

    A repetition fails when it raised, its artifacts failed a check, its
    CSV differs from the first repetition's, its exact counts differ from
    the first traced repetition's, or (strict_gate) its gate missed.
    """
    first = next((r for r in reps if "csv_sha256" in r), None)
    first_traced = next((r for r in reps if "layers" in r), None)
    failed = 0
    for rep in reps:
        why = [rep["error"]] if "error" in rep else list(rep["problems"])
        if not why:
            if rep["csv_sha256"] != first["csv_sha256"]:
                why.append("CSV differs from the first repetition")
            if strict_gate and rep["verdict"] != "PASS":
                why.append("gate missed at the acceptance seed")
            if "layers" in rep:
                changed = [k for k, v in rep["layers"].items()
                           if is_count(k) and v != first_traced["layers"][k]]
                if changed:
                    why.append(f"counts differ between traced runs: {changed}")
        rep["failures"] = why
        failed += bool(why)
    return failed


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload for `seconds`; returns (reps, failed, metrics)."""
    trials = workload.smoke_trials if smoke else workload.trials
    out_dir = os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, trials, traced, out_dir))
        done = len(reps) >= (2 if trace else 1)
        if smoke and done:
            break
        typical = statistics.median(r["elapsed"] for r in reps)
        if done and time.monotonic() - start + typical > seconds:
            break
    failed = rep_failures(reps, strict_gate=seed == 0 and not smoke)
    good = [r for r in reps if not r["failures"]]
    untraced = [r for r in good if not r["trace"]]
    traced_reps = [r for r in good if r["trace"]]
    if not trace:
        if not untraced:
            return reps, failed, None
        timings = calibrate.at_reference(untraced)
        metrics = {k: (timings[k] if k in timings
                       else statistics.median(r[k] for r in untraced), unit)
                   for k, unit in E2E_UNITS.items()}
        return reps, failed, metrics
    if not (untraced and traced_reps):
        return reps, failed, None
    metrics = {}
    for key, first in traced_reps[0]["layers"].items():
        if first is not None and not is_count(key):
            first = statistics.median(r["layers"][key] for r in traced_reps)
        metrics[key] = (first, layer_unit(key))
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced_reps)
        - statistics.median(r["wall_s"] for r in untraced), "s")
    return reps, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to each workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts, one repetition of each kind")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wearnet", "experiments.py")):
        print(f"error: no wearnet sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {list(WORKLOADS)}")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    machine = machine_block()
    print(json.dumps({"machine": machine}))
    os.makedirs(OUT_DIR, exist_ok=True)
    attempted = failed = 0
    result = {}
    for name in names:
        workload = WORKLOADS[name]
        reps, n_failed, metrics = run_workload(
            workload, args.seed, seconds, bool(args.trace), args.smoke)
        attempted += len(reps)
        failed += n_failed
        misses = sum(r.get("verdict") == "FAIL" for r in reps)
        print(f"{name}: plan seed {workload.plan_seed(args.seed)}, "
              f"{len(reps)} repetitions, {n_failed} failed "
              f"(failed_frac {n_failed / len(reps):.3f}), gate misses {misses}")
        for rep in reps:
            for why in rep["failures"]:
                print(f"  FAILED: {why}")
        report = {"machine": machine, "workload": name, "seed": args.seed,
                  "plan_seed": workload.plan_seed(args.seed),
                  "trace": args.trace, "smoke": args.smoke,
                  "seconds": seconds, "repetitions": reps,
                  "metrics": metrics and {k: {"value": v, "unit": u}
                                          for k, (v, u) in metrics.items()}}
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}"
                                     f"{'-smoke' if args.smoke else ''}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        if metrics is None:
            print(f"error: {name}: no repetition completed", file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            if value is None:
                # the layer no longer exists under its traced name: it did
                # no work, and the flag tells that apart from a measured zero
                print(f"  {key:48s} absent")
                result[prefix + key] = {"value": 0, "unit": unit, "absent": True}
                continue
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {key:48s} {shown} {unit}")
            result[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
