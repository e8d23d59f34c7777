"""Host-speed probe: a fixed piece of work timed next to each repetition.

The shared host this benchmark was built on changes speed by tens of
percent within minutes (other tenants load it), and the program's CPU time
follows its wall time, so longer runs alone do not steady the figures.
Each repetition therefore times this probe right before and right after
its ``run_plan`` call, and a run's timings are scaled by REF / probe time,
which states them in seconds of a host that runs a chunk of the probe in
the REF times below.

The probe uses numpy and the standard library only, never the program, so
a change to the program moves the scaled timings as much as the raw ones.
Its mix follows the program's hot paths: a new PCG64 substream per trial,
elementwise work on arrays of a few dozen points, and a dot product of a
20-node rule inside a Python loop.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About one chunk's time on the 2-core Xeon VM the benchmark was built on.
# They only fix the unit: a change to them scales every run alike.
REF_WALL_S = 0.05
REF_CPU_S = 0.05
ITERATIONS = 1000  # trials of one chunk


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def _chunk():
    acc = 0.0
    for k in range(ITERATIONS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, k))))
        r = np.sqrt(rng.random(40)) * 2.0
        phi = rng.uniform(-math.pi, math.pi, 40)
        gain = np.where(np.abs(np.mod(phi + math.pi, 2.0 * math.pi) - math.pi) <= 0.5,
                        10.0, 0.1)
        h = rng.gamma(3.0, 1.0 / 3.0, 40)
        acc += float(np.sum(gain * h * r ** -3.2))
        for lo in (0.1, 0.4, 0.7):
            x = lo + 0.15 * (_NODES + 1.0)
            acc += float(np.dot(_WEIGHTS, 1.0 / (1.0 + x ** -3.4)))
    return acc


def probe(chunks):
    """Wall and process CPU seconds of each chunk: ([wall...], [cpu...])."""
    walls, cpus = [], []
    for _ in range(chunks):
        cpu0, t0 = time.process_time(), time.perf_counter()
        _chunk()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
    return walls, cpus


def at_reference(reps):
    """The repetitions' mean timings stated at the REF speed.

    Each is the repetitions' total time over the total time of the probes
    run next to them, times REF: wall clock for wall_s, setup_s and
    trials_per_s, process CPU for cpu_s.  Totals, not one ratio per
    repetition: a handful of probe chunks is a poor sample of a host whose
    speed also swings by tens of percent within a second, and pooling all
    of a run's chunks averages that out.
    """
    def ratio(key, probe_key):
        probe = statistics.mean(t for r in reps for t in r[probe_key])
        return statistics.mean(r[key] for r in reps) / probe

    wall_s = REF_WALL_S * ratio("wall_s", "probe_wall_s")
    return {"wall_s": wall_s,
            "setup_s": REF_WALL_S * ratio("setup_s", "probe_wall_s"),
            "cpu_s": REF_CPU_S * ratio("cpu_s", "probe_cpu_s"),
            "trials_per_s": reps[0]["trials"] / wall_s}
