"""Span tracing for the traced benchmark repetition.

Each instrumented function is replaced, for the length of one run, by a
wrapper at the module attribute its caller looks up (``mcsim.classify_los``,
not ``geometry.classify_los``, because mcsim imported the name).  A span is
``[name, start, end, parent]`` with ``parent`` the index of the innermost
span open when it began, or -1.  Self time is a span's duration minus the
durations of its direct children, so the nested quadrature inside the
ergodic-SE integral is not counted twice.

Worker processes of the simulation pool are forked with the wrappers in
place.  The first span a worker records resets its inherited copy of the
trace and registers a multiprocessing finalizer that writes the worker's
spans and counts to ``child_dir`` when the worker exits; ``merge_children``
folds those files into the parent's trace after the run.  Worker spans are
roots: their time is busy time in another process, not a part of the
parent's self time.

A name that does not exist in the program (a refactor removed or renamed
it) is recorded in ``absent`` and left untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util

import numpy as np

_ENTRY_POINTS = ("simulate_sinr_samples", "simulate_ccdf", "simulate_se_ccdf",
                 "estimate_ergodic_se", "estimate_mean_los_count")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_classify(c, args, kwargs, result):
    d = np.asarray(_arg(args, kwargs, 2, "d"))
    half_w = 0.5 * _arg(args, kwargs, 4, "W")
    c["calls"] += 1
    c["links"] += int(np.size(_arg(args, kwargs, 0, "r")))
    c["blockers"] += int(d.size)
    c["all_blocked"] += int(bool(np.any(d <= half_w)))


def _count_points(c, args, kwargs, result):
    c["calls"] += 1
    c["points"] += int(np.size(result[0]))


def _count_draws(c, args, kwargs, result):
    c["calls"] += 1
    c["draws"] += int(np.size(result))


def _count_ccdf_points(c, args, kwargs, result):
    c["calls"] += 1
    c["points"] += int(np.size(_arg(args, kwargs, 0, "beta")))


def _count_calls(c, args, kwargs, result):
    c["calls"] += 1


def _count_bytes(c, args, kwargs, result):
    c["calls"] += 1
    c["bytes"] += os.path.getsize(result)


# (module, attribute looked up by the caller, span name, counter); the
# quadrature rule and the simulation entry points have wrappers of their own
INSTRUMENTS = (
    ("wearnet.mcsim", "classify_los", "geometry.classify_los", _count_classify),
    ("wearnet.mcsim", "sample_ppp_disk", "geometry.sample_ppp_disk", _count_points),
    ("wearnet.mcsim", "sample_nakagami_power", "mcsim.sample_nakagami_power",
     _count_draws),
    ("wearnet.analytic", "coverage_ccdf", "analytic.coverage_ccdf",
     _count_ccdf_points),
    ("wearnet.analytic", "laplace_term", "analytic.laplace_term", _count_calls),
    ("wearnet.analytic", "ergodic_spectral_efficiency",
     "analytic.ergodic_spectral_efficiency", _count_calls),
    ("wearnet.analytic", "adaptive_gauss_legendre",
     "quadrature.adaptive_gauss_legendre", None),
    ("wearnet.experiments", "write_csv", "experiments.write_csv", _count_bytes),
    ("wearnet.experiments", "run_plan", "experiments.run_plan", _count_calls),
) + tuple(("wearnet.mcsim", fn, f"mcsim.{fn}", None) for fn in _ENTRY_POINTS)

ENTRY_SPANS = frozenset(f"mcsim.{fn}" for fn in _ENTRY_POINTS)
_QUADRATURE = "quadrature.adaptive_gauss_legendre"


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """In-memory spans and exact counts for one traced run."""

    def __init__(self, child_dir):
        self.child_dir = child_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        self.absent = []
        self.entry_cpu_s = 0.0
        self.entry_wall_s = 0.0
        self._patches = []

    # --- installing and removing the wrappers ---------------------------

    def install(self):
        for module_name, attr, name, count in INSTRUMENTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if name == _QUADRATURE:
                wrapper = self._quadrature_wrapper(name, original)
            elif name in ENTRY_SPANS:
                wrapper = self._entry_wrapper(name, original)
            else:
                wrapper = self._wrapper(name, original, count)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- span recording ---------------------------------------------------

    def _open(self, name):
        if os.getpid() != self.pid:
            self._adopt_worker()
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index, start, end):
        self.stack.pop()
        span = self.spans[index]
        span[1] = start
        span[2] = end

    def _wrapper(self, name, original, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, start, time.perf_counter())
            count(tracer.counts[name], args, kwargs, result)
            return result

        return traced

    def _quadrature_wrapper(self, name, original):
        # Counts integrand evaluations point by point: the rule calls its
        # integrand once per panel with all of the panel's nodes.
        tracer = self

        @functools.wraps(original)
        def traced(f, *args, **kwargs):
            index = tracer._open(name)
            c = tracer.counts[name]

            def counted(x):
                c["fevals"] += int(np.size(x))
                return f(x)

            start = time.perf_counter()
            try:
                result = original(counted, *args, **kwargs)
            finally:
                tracer._close(index, start, time.perf_counter())
            c["calls"] += 1
            return result

        return traced

    def _entry_wrapper(self, name, original):
        # The outermost simulation entry point of a call chain counts the
        # trials (simulate_ccdf calls simulate_sinr_samples for the same
        # trials) and the CPU time the simulation used, workers included.
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outermost = not any(tracer.spans[i][0] in ENTRY_SPANS
                                for i in tracer.stack)
            cpu0 = cpu_seconds() if outermost else 0.0
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(index, start, end)
            c = tracer.counts[name]
            c["calls"] += 1
            if outermost:
                c["trials"] += int(
                    _arg(args, kwargs, 1, "n_deployments")
                    if name == "mcsim.estimate_mean_los_count"
                    else _arg(args, kwargs, 2, "n_trials"))
                tracer.entry_cpu_s += cpu_seconds() - cpu0
                tracer.entry_wall_s += end - start
            return result

        return traced

    # --- worker processes ---------------------------------------------------

    def _adopt_worker(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        mp_util.Finalize(self, self._dump_worker, exitpriority=100)

    def _dump_worker(self):
        path = os.path.join(self.child_dir, f"worker-{self.pid}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans,
                       "counts": {k: dict(v) for k, v in self.counts.items()}}, fh)

    def merge_children(self):
        """Fold the spans and counts the pool workers wrote into this trace."""
        for entry in sorted(os.listdir(self.child_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.child_dir, entry), encoding="ascii") as fh:
                data = json.load(fh)
            offset = len(self.spans)
            for name, start, end, parent in data["spans"]:
                self.spans.append([name, start, end,
                                   parent + offset if parent >= 0 else -1])
            for name, counts in data["counts"].items():
                self.counts[name].update(counts)

    # --- summary ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self_s, and busy_s (outermost spans only)."""
        n = len(self.spans)
        duration = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * n
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        out = defaultdict(lambda: {"spans": 0, "self_s": 0.0, "busy_s": 0.0})
        for i, (name, _, _, parent) in enumerate(self.spans):
            row = out[name]
            row["spans"] += 1
            row["self_s"] += duration[i] - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += duration[i]
        return dict(out)


def layer_metrics(tracer, workers):
    """The per-layer metrics of one traced run; None marks an absent layer.

    mcsim.self_us_per_trial is the self time of the simulation entry points
    (substream creation, marks, the interference sum; with a pool, the wait
    for the workers too) per trial.  mcsim.parallel_efficiency is the CPU
    time of this process and its workers over the outermost entry-point
    spans, divided by workers times their wall time.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def present(name):
        return name not in tracer.absent

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) if present(name) else None

    def count(name, key):
        return int(counts[name][key]) if present(name) else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    cl, pp, nk = ("geometry.classify_los", "geometry.sample_ppp_disk",
                  "mcsim.sample_nakagami_power")
    cc, lt, es, ag = ("analytic.coverage_ccdf", "analytic.laplace_term",
                      "analytic.ergodic_spectral_efficiency", _QUADRATURE)
    wc, rp = "experiments.write_csv", "experiments.run_plan"
    entries = [n for n in ENTRY_SPANS if present(n)]
    trials = sum(counts[n]["trials"] for n in entries)
    entry_self = sum(spans.get(n, {}).get("self_s", 0.0) for n in entries)
    return {
        f"{cl}.self_s": self_s(cl),
        f"{cl}.calls": count(cl, "calls"),
        f"{cl}.links": count(cl, "links"),
        f"{cl}.blockers": count(cl, "blockers"),
        f"{cl}.all_blocked_frac": ratio(count(cl, "all_blocked"), count(cl, "calls")),
        f"{pp}.self_s": self_s(pp),
        f"{pp}.points": count(pp, "points"),
        f"{nk}.self_s": self_s(nk),
        f"{nk}.draws": count(nk, "draws"),
        "mcsim.self_us_per_trial": ratio(1e6 * entry_self, trials) if entries else None,
        "mcsim.parallel_efficiency": (ratio(tracer.entry_cpu_s, workers * tracer.entry_wall_s)
                                      if entries else None),
        f"{cc}.self_s": self_s(cc),
        f"{cc}.points": count(cc, "points"),
        f"{lt}.self_s": self_s(lt),
        f"{lt}.calls": count(lt, "calls"),
        f"{es}.busy_s": spans.get(es, {}).get("busy_s", 0.0) if present(es) else None,
        f"{es}.calls": count(es, "calls"),
        f"{ag}.self_s": self_s(ag),
        f"{ag}.calls": count(ag, "calls"),
        f"{ag}.fevals": count(ag, "fevals"),
        f"{rp}.self_s": self_s(rp),
        f"{wc}.self_s": self_s(wc),
        f"{wc}.bytes": count(wc, "bytes"),
    }


def is_count(metric):
    """Exact counts, which must repeat between traced runs of one seed."""
    return not (metric.endswith("_s") or metric.endswith("_frac")
                or metric in ("mcsim.self_us_per_trial", "mcsim.parallel_efficiency"))

