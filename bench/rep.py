"""One benchmark repetition in a fresh interpreter.

    python3 bench/rep.py WORKLOAD SEED TRIALS OUT_DIR TRACE SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system wide on Linux), so setup_s covers the
interpreter start, the imports, the config build and validate_plan.  The
host-speed probe (calibrate.py) runs right before and right after the timed
region, and its chunk times go out with the raw timings.  The run's
artifacts are checked after the timed region.  Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv):
    name, seed, trials, out_dir, trace, spawned = argv
    seed, trials, trace, spawned = int(seed), int(trials), trace == "1", float(spawned)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    from wearnet import experiments, model

    import calibrate
    import tracing
    from workloads import WORKLOADS, build_plan, check_artifacts, sha256

    workload = WORKLOADS[name]
    plan = experiments.validate_plan(
        build_plan(experiments, model, workload, seed, trials, out_dir))
    setup_s = time.monotonic() - spawned

    probe = calibrate.probe(workload.probe_chunks)
    tracer = None
    if trace:
        child_dir = os.path.join(out_dir, "trace")
        os.makedirs(child_dir, exist_ok=True)
        tracer = tracing.Tracer(child_dir)
        tracer.install()
    cpu0 = tracing.cpu_seconds()
    start = time.perf_counter()
    try:
        try:
            experiments.run_plan(plan)
        except experiments.ToleranceExceeded:
            pass  # the verdict is read back from the artifacts below
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = tracing.cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    probe = [a + b for a, b in zip(probe, calibrate.probe(workload.probe_chunks))]

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    problems, verdict = check_artifacts(workload, plan.seed, out_dir)
    out = {
        "trace": trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "trials": workload.trials_run(trials),
        "trials_per_s": workload.trials_run(trials) / wall_s,
        "probe_wall_s": probe[0],
        "probe_cpu_s": probe[1],
        "verdict": verdict,
        "problems": problems,
        "csv_sha256": sha256(os.path.join(out_dir, workload.csv_name)),
    }
    if tracer is not None:
        tracer.merge_children()
        out["layers"] = tracing.layer_metrics(tracer, workload.workers)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
