"""Experiment harness: sweep plans, CSV artifacts, comparison summaries.

Each plan kind produces the dataset behind one style of result figure:
LOS-ball radius versus network radius (losball_sweep), mean LOS interferer
count versus density (mean_count_sweep), analytic-vs-simulated SINR CCDF
(coverage_compare), full-vs-reduced-model spectral-efficiency CDF
(se_compare), and ergodic spectral efficiency versus Nakagami order
(nakagami_sweep).

Artifacts are plain CSV with '.' decimals; floats are written with repr so
reruns with identical inputs are byte-identical.  Every CSV starts with a
comment line carrying the config hash and master seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, losball, mcsim
from .model import (CONFIG_KEYS, REQUIRED_PLACEHOLDER, ConfigError,
                    check_grid, check_real, check_thresholds, config_hash,
                    db_to_linear, nakagami_order)


class IoError(Exception):
    """An artifact could not be written (wraps the OS error)."""


class ToleranceExceeded(Exception):
    """A comparison missed its tolerance; carries (measure, tolerance).

    Every constructor argument stays in ``args``, so the error pickles;
    ``str`` is the message alone.
    """

    def __init__(self, message, measure, tolerance):
        super().__init__(message, measure, tolerance)
        self.measure = measure
        self.tolerance = tolerance

    def __str__(self):
        return self.args[0]


@dataclass(frozen=True)
class ExperimentPlan:
    """One reproducible experiment.

    kind            one of KINDS
    config          base NetworkConfig, valid once it exists
    grid            kind-specific sweep values: net_radius grid
                    (losball_sweep), densities (mean_count_sweep), SINR
                    thresholds in dB (coverage_compare), spectral-efficiency
                    thresholds in bits/s/Hz (se_compare), Nakagami orders
                    (nakagami_sweep)
    out_dir         directory for artifacts
    seed            master seed for all simulation in the plan
    trials          Monte Carlo trials per estimate
    tolerance       comparison gate: sup-norm bound for coverage_compare /
                    se_compare, standard-error multiple for the others;
                    None is the kind's default
    density_family  densities for losball_sweep, one block of rows each;
                    empty means the config density
    workers         worker processes for trial-parallel simulation, 0 = one
                    per CPU

    Each kind's grid rule, default gate tolerance and trial floor are its
    row of _KINDS.
    """

    kind: str
    config: object
    grid: tuple
    out_dir: str
    seed: int = 0
    trials: int = 10000
    tolerance: float | None = None
    density_family: tuple = field(default_factory=tuple)
    workers: int = 1


def validate_plan(plan):
    """Return ``plan``, or raise its first ConfigError before any row runs:
    an unknown kind (UnknownPlanKind), an empty grid (EmptySweepGrid), the
    check_run refusals of trials, seed and workers, fewer trials than the
    kind's floor (TooFewTrials: one trial has no standard error), a set
    tolerance that is not a finite real number >= 0 (ToleranceNegative),
    a grid value that is not a real number or breaks the rule of the
    config field it stands for (the NetworkConfig that dataclasses.replace
    makes with it refuses it; a Nakagami order is also integral:
    model.nakagami_order), a grid that breaks the kind's grid rule
    (model.check_grid: GridNotAscending; model.check_thresholds:
    ThresholdNegative), and a density_family value that is not a density.
    The floor, the field and the grid rule are the kind's row of _KINDS."""
    if plan.kind not in _KINDS:
        raise ConfigError("UnknownPlanKind",
                          f"kind must be one of {KINDS}, got {plan.kind!r}")
    _, _, swept, grid_rule, floor = _KINDS[plan.kind]
    if len(plan.grid) == 0:
        raise ConfigError("EmptySweepGrid", "plan.grid must be nonempty")
    mcsim.check_run(plan.trials, plan.seed, plan.workers)
    if plan.trials < floor:
        raise ConfigError("TooFewTrials", f"{plan.kind} gates on standard "
                          f"errors, which need at least {floor} trials, got {plan.trials}")
    if plan.tolerance is not None:
        check_real("plan.tolerance", plan.tolerance)
        if plan.tolerance < 0.0:
            raise ConfigError("ToleranceNegative",
                              f"tolerance must be >= 0, got {plan.tolerance}")
    for v in plan.grid:
        check_real("plan.grid value", v)
        if swept == "m_los":
            v = nakagami_order("plan.grid value", v)
        if swept is not None:
            replace(plan.config, **{swept: v})
    if grid_rule is not None:
        grid_rule(plan.kind, plan.grid)
    for v in plan.density_family:
        replace(plan.config, density=v)
    return plan


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("no boolean CSV fields")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write(path, text):
    """Write ``text`` as ASCII with Unix line ends, creating parent directories."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_csv(path, columns, rows, config, seed):
    """CSV with a '# config_hash=... seed=...' comment line, then header."""
    lines = [f"# config_hash={config_hash(config)} seed={seed}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return _write(path, "\n".join(lines) + "\n")


# Each runner only computes, from the plan and its gate's tolerance.  It
# returns (csv name, columns, rows, summary fields, failure): the summary
# fields are printed to summary.txt in order and returned by run_plan, and
# failure is the ToleranceExceeded that run_plan raises once the artifacts
# exist, or None when the gate holds.

def _run_losball_sweep(plan, tol):
    cfg = plan.config
    W = cfg.blockage_diameter
    densities = tuple(plan.density_family) or (cfg.density,)
    rows = []
    for lam in densities:
        for r_net in plan.grid:
            rows.append((lam, W, r_net,
                         losball.mean_los_interferers(lam, W, r_net),
                         losball.los_ball_radius(lam, W, r_net),
                         losball.los_ball_radius_limit(lam, W)))
    return ("losball.csv",
            ("lambda", "W", "r_net", "mean_los", "r_los", "r_los_limit"),
            rows, {"rows": len(rows)}, None)


def _run_mean_count_sweep(plan, se_multiple):
    cfg = plan.config
    rows = []
    worst = 0.0
    for lam in plan.grid:
        cfg_l = replace(cfg, density=float(lam))
        analytic_mean = losball.mean_los_interferers(
            lam, cfg.blockage_diameter, cfg.net_radius)
        mc_mean, se = mcsim.estimate_mean_los_count(cfg_l, plan.trials,
                                                    plan.seed, plan.workers)
        rows.append((lam, analytic_mean, mc_mean, se))
        if se > 0.0:
            worst = max(worst, float(abs(mc_mean - analytic_mean) / se))
    failure = None if worst <= se_multiple else ToleranceExceeded(
        f"mean LOS count off by {worst:.2f} standard errors "
        f"(allowed {se_multiple})", worst, se_multiple)
    return ("mean_count.csv",
            ("lambda", "mean_los_analytic", "mean_los_mc", "stderr"), rows,
            {"max_z": worst, "tolerance": se_multiple}, failure)


def _run_coverage_compare(plan, tol):
    cfg = plan.config
    beta_db = np.asarray(plan.grid, dtype=float)
    beta = db_to_linear(beta_db)
    params = analytic.coverage_params(cfg)
    ccdf_a = np.asarray(analytic.coverage_ccdf(beta, params))
    emp = mcsim.simulate_ccdf(mcsim.LOSBALL, cfg, plan.trials, beta,
                              plan.seed, plan.workers)
    sup = float(np.max(np.abs(ccdf_a - emp.ccdf)))
    bound_ok = bool(np.all(ccdf_a >= emp.ccdf - 3.0 * emp.stderr))
    failure = None if sup <= tol and bound_ok else ToleranceExceeded(
        f"coverage sup-norm {sup:.4f} vs tolerance {tol} "
        f"(bound direction {'ok' if bound_ok else 'violated'})", sup, tol)
    return ("coverage_compare.csv",
            ("beta_dB", "ccdf_analytic", "ccdf_sim", "stderr"),
            list(zip(beta_db, ccdf_a, emp.ccdf, emp.stderr)),
            {"sup_norm": sup, "tolerance": tol, "bound_direction": bound_ok},
            failure)


def _run_se_compare(plan, tol):
    cfg = plan.config
    t_grid = np.asarray(plan.grid, dtype=float)
    params = analytic.coverage_params(cfg)
    cdf_a = 1.0 - np.asarray(analytic.spectral_efficiency_ccdf(t_grid, params))
    full = mcsim.simulate_se_ccdf(mcsim.FULL, cfg, plan.trials, t_grid,
                                  plan.seed, plan.workers)
    ball = mcsim.simulate_se_ccdf(mcsim.LOSBALL, cfg, plan.trials, t_grid,
                                  plan.seed, plan.workers)
    sup = float(np.max(np.abs(full.cdf - ball.cdf)))
    failure = None if sup <= tol else ToleranceExceeded(
        f"spectral-efficiency CDF sup-norm {sup:.4f} vs tolerance {tol}",
        sup, tol)
    return ("se_compare.csv",
            ("eta_bps_hz", "cdf_full", "stderr_full", "cdf_losball",
             "stderr_losball", "cdf_analytic"),
            list(zip(t_grid, full.cdf, full.stderr, ball.cdf, ball.stderr, cdf_a)),
            {"sup_norm": sup, "tolerance": tol}, failure)


def _run_nakagami_sweep(plan, se_multiple):
    # The analytic value is a strict upper bound on the true mean for m > 1
    # (its gap grows with m), so the gate checks the trend on both curves
    # and the bound direction rather than analytic == MC.  Every order's
    # analytic value comes first, then one Monte Carlo run serves all
    # orders; trial k of order m draws what a one-order run at m draws.
    # The orders share their deployments, so the MC differences use common
    # random numbers, and the trend slack, which takes the two errors as
    # independent, is conservative.
    cfg = plan.config
    orders = [int(m) for m in plan.grid]
    analytic_se = [analytic.ergodic_spectral_efficiency(
        analytic.coverage_params(replace(cfg, m_los=m))) for m in orders]
    sweep = mcsim.simulate_order_sweep(mcsim.LOSBALL, cfg, orders, plan.trials,
                                       plan.seed, plan.workers)
    rows = [(m, se_a, *mcsim.mean_spectral_efficiency(samples))
            for m, se_a, samples in zip(orders, analytic_se, sweep)]
    _, se_a, se_mc, err = np.array(rows, dtype=float).T
    nondecreasing = bool(np.all(np.diff(se_a) >= 0.0))
    slack = se_multiple * np.hypot(err[1:], err[:-1])
    mc_trend = bool(np.all(np.diff(se_mc) >= -slack))
    upper_bound = bool(np.all(se_a >= se_mc - se_multiple * err))
    ok = nondecreasing and mc_trend and upper_bound
    failure = None if ok else ToleranceExceeded(
        f"nakagami sweep: analytic nondecreasing {nondecreasing}, MC "
        f"trend within slack {mc_trend}, bound direction {upper_bound}",
        float(np.min(np.diff(se_mc) + slack, initial=np.inf)), se_multiple)
    return ("nakagami_sweep.csv", ("m", "se_analytic", "se_mc", "stderr"), rows,
            {"analytic_nondecreasing": nondecreasing, "mc_trend": mc_trend,
             "upper_bound": upper_bound, "tolerance": se_multiple}, failure)


# kind: (runner, its gate's default tolerance, the config field each grid
# value stands for, the rule of its threshold or order grid, the fewest
# trials its gate can judge: 2 where it counts standard errors); None
# where a kind has no gate, no such field or no such rule.
_KINDS = {
    "losball_sweep": (_run_losball_sweep, None, "net_radius", None, 1),
    "mean_count_sweep": (_run_mean_count_sweep, 3.0, "density", None, 2),
    "coverage_compare": (_run_coverage_compare, 0.03, None, check_grid, 1),
    "se_compare": (_run_se_compare, 0.05, None, lambda kind, grid: check_thresholds(
        f"{kind} grid", check_grid(kind, grid)), 1),
    "nakagami_sweep": (_run_nakagami_sweep, 2.0, "m_los", check_grid, 2),
}

KINDS = tuple(_KINDS)


def _summary_value(value):
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    return repr(value)


def run_plan(plan):
    """Execute a validated plan; writes its artifacts, returns a summary dict.

    Every kind writes its CSV and a one-line summary.txt,
    'kind=<kind> key=value ... status=PASS|FAIL' (booleans as PASS/FAIL,
    other values as repr).  A gate without a set tolerance runs at the
    kind's default from _KINDS.  Raises ToleranceExceeded when a comparison
    gate fails, after both artifacts are written with status FAIL.  Otherwise
    returns {"kind", "files", <the summary fields>, "status": "PASS"}.
    """
    runner, default, *_ = _KINDS[validate_plan(plan).kind]
    name, columns, rows, fields, failure = runner(
        plan, default if plan.tolerance is None else plan.tolerance)
    csv_path = write_csv(os.path.join(plan.out_dir, name), columns, rows,
                         plan.config, plan.seed)
    words = [f"kind={plan.kind}"]
    words += [f"{key}={_summary_value(value)}"
              for key, value in {**fields, "status": failure is None}.items()]
    summary = _write(os.path.join(plan.out_dir, "summary.txt"),
                     " ".join(words) + "\n")
    if failure is not None:
        raise failure
    return {"kind": plan.kind, "files": [csv_path, summary], **fields,
            "status": "PASS"}


# --- canonical figure-style configurations --------------------------------
#
# Each setup fixes the scenario values it is defined by; the physical
# constants it leaves open (path-loss exponents, reference distance, noise
# power) are REQUIRED placeholders that loading refuses until the user sets
# them.

_FIGURES = {  # figure id: (comment lines, values that differ by figure)
    "fig3": ("# LOS ball radius vs network radius; sweep r_net over [1, 20],\n"
             "# density family {0.5, 1, 2, 3, 5} per curve.\n",
             {"lambda": 3, "p_t": 1, "m": 1}),
    "fig5": ("# Mean LOS interferer count vs density; sweep lambda over\n"
             "# {1, 2, 3, 4, 5}; analytic curve plus Monte Carlo estimates.\n",
             {"lambda": 3, "p_t": 1, "m": 1}),
    "fig6": ("# Spectral-efficiency CDF, full model vs LOS-ball reduction.\n",
             {"lambda": 3, "p_t": 1, "m": 1}),
    "fig7": ("# SINR CCDF, analytic bound vs LOS-ball simulation.\n",
             {"lambda": 3, "p_t": 0.8, "m": 3}),
    "fig8": ("# Ergodic spectral efficiency vs Nakagami order; sweep m over\n"
             "# {1, 2, 4, 8, 16}.\n",
             {"lambda": 2, "p_t": 1, "m": 1}),
}

FIGURE_IDS = tuple(_FIGURES)

_FIGURE_COMMON = {
    "W": 0.3, "r_net": 10,
    "Gt_dB": 6, "gt_dB": -0.88, "theta_t_deg": 50,
    "Gr_dB": 6, "gr_dB": -0.88, "theta_r_deg": 50,
    "alpha_L": REQUIRED_PLACEHOLDER, "alpha_N": REQUIRED_PLACEHOLDER,
    "R0": REQUIRED_PLACEHOLDER, "noise_power": REQUIRED_PLACEHOLDER,
    "m_nlos": 1, "power_ratio": 1,
}


def figure_config_text(figure_id):
    """Canonical key = value text for one figure-style setup."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError("UnknownFigure", f"figure_id must be one of "
                          f"{FIGURE_IDS}, got {figure_id!r}")
    note, figure_values = _FIGURES[figure_id]
    values = {**_FIGURE_COMMON, **figure_values}
    return note + "".join(f"{key} = {values[key]}\n" for key in CONFIG_KEYS)


def emit_figure_config(figure_id, path):
    """Write the canonical config for a figure; REQUIRED fields left unset."""
    return _write(path, figure_config_text(figure_id))
