"""Command line front end.

Subcommands: losball, coverage, simulate, se-cdf, compare, figure-config.
Global flags --config/--out-dir/--seed/--threads sit before the subcommand;
each can also come from the environment (WEARNET_CONFIG, WEARNET_OUT_DIR,
WEARNET_SEED, WEARNET_THREADS), and any configuration key can be overridden
the same way (e.g. WEARNET_LAMBDA=2 or WEARNET_ALPHA_L=2.0; the gains whose
names differ only in case keep their spelling, WEARNET_Gt_dB and
WEARNET_gt_dB), with explicit file values losing to the environment and
flags beating both.

Exit status: 0 success, 1 a comparison missed its tolerance, 2 bad
configuration/arguments, unwritable output or a run that does not fit in
memory (MemoryError), 3 a numerical failure (an ArithmeticError such as
QuadratureNotConverged).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analytic, experiments, mcsim
from .model import (CONFIG_KEYS, ConfigError, config_from_keys, db_to_linear,
                    exceeds_one_array, parse_key_values)


def parse_grid(text):
    """'start:stop:step' (endpoints inclusive) or comma-separated values.

    A grid with no value, with a non-finite value or endpoint, or with more
    points than one float64 array can hold, is MalformedGrid.
    """
    text = text.strip()
    is_range = ":" in text
    try:
        values = [float(p) for p in text.split(":" if is_range else ",")
                  if p.strip() != ""]
    except ValueError:
        raise ConfigError("MalformedGrid", f"cannot parse grid {text!r}") from None
    if not values or not all(math.isfinite(v) for v in values):
        raise ConfigError("MalformedGrid", f"grid needs finite values, got {text!r}")
    if not is_range:
        return np.array(values)
    if len(values) != 3:
        raise ConfigError("MalformedGrid",
                          f"grid must be start:stop:step, got {text!r}")
    start, stop, step = values
    # the float64 points must fit in one array; an infinite count does not
    if (step <= 0.0 or stop < start
            or exceeds_one_array(8.0 * ((stop - start) / step + 1.0))):
        raise ConfigError("MalformedGrid", f"bad grid range {text!r}")
    n = int(round((stop - start) / step))
    grid = start + step * np.arange(n + 1)
    return grid[grid <= stop + 1e-9 * max(1.0, abs(stop))]


# Each configuration key's environment variable is WEARNET_ + the key in
# upper case, or + the key as spelled where two keys share that upper case
# (Gt_dB and gt_dB, Gr_dB and gr_dB): the shared form, by the keys it names.
_UPPER = [key.upper() for key in CONFIG_KEYS]
_SHARED = {upper: [key for key in CONFIG_KEYS if key.upper() == upper]
           for upper in _UPPER if _UPPER.count(upper) > 1}


def load_config_with_env(path):
    """Load a config file, letting WEARNET_<KEY> environment values override
    (see _SHARED).  A set WEARNET_ variable that two keys share, such as
    WEARNET_GT_DB, is refused by name."""
    if path is None:
        raise ConfigError("MissingConfigKey",
                          "this subcommand needs --config (or WEARNET_CONFIG)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_key_values(fh.read())
    except OSError as exc:
        raise experiments.IoError(f"cannot read config {path}: {exc}") from exc
    for upper, keys in _SHARED.items():
        if "WEARNET_" + upper in os.environ:
            raise ConfigError("AmbiguousEnvKey",
                              f"WEARNET_{upper} would set both {' and '.join(keys)}; "
                              f"set {' or '.join('WEARNET_' + key for key in keys)}")
    for key in CONFIG_KEYS:
        env = os.environ.get("WEARNET_" + (key if key.upper() in _SHARED else key.upper()))
        if env is not None:
            values[key] = env
    return config_from_keys(values)


def _env(name, fallback):
    return os.environ.get("WEARNET_" + name, fallback)


def _env_int(name, fallback):
    text = _env(name, str(fallback))
    try:
        return int(text)
    except ValueError:
        raise ConfigError("InvalidNumber",
                          f"WEARNET_{name} must be an integer, got {text!r}") from None


# ExperimentPlan's defaults are the command line's: --trials, and the
# --seed and --threads fallbacks when neither a flag nor the environment sets
# one (a dataclass keeps each plain default as a class attribute).
_PLAN = experiments.ExperimentPlan

# compare --kind: (plan kind, the one grid argument that kind reads)
_COMPARE_KINDS = {
    "coverage": ("coverage_compare", "beta_grid_db"),
    "se": ("se_compare", "t_grid"),
    "mean-count": ("mean_count_sweep", "lambda_grid"),
    "nakagami": ("nakagami_sweep", "m_grid"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wearnet",
        description="Coverage and spectral efficiency of mmWave wearable "
                    "networks under human-body blockage.")
    parser.add_argument("--config", default=_env("CONFIG", None),
                        help="model configuration file (key = value lines)")
    parser.add_argument("--out-dir", default=_env("OUT_DIR", "."),
                        help="directory for artifacts (default: .)")
    # --seed/--threads fall back to the environment in main(), where a
    # malformed value is reported like any other bad argument
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed for all simulation (default: {_PLAN.seed})")
    parser.add_argument("--threads", type=int, default=None,
                        help="simulation worker processes, 0 = auto "
                             f"(default: {_PLAN.workers})")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag that several subcommands take is one parent parser
    mode, trials, beta, t_grid, out = (argparse.ArgumentParser(add_help=False)
                                       for _ in range(5))
    mode.add_argument("--mode", choices=(mcsim.FULL, mcsim.LOSBALL), required=True,
                      help="simulation model: full geometry or the LOS ball")
    trials.add_argument("--trials", type=int, default=_PLAN.trials,
                        help="Monte Carlo trials (default: %(default)s)")
    beta.add_argument("--beta-grid-dB", default="-10:30:1", dest="beta_grid_db",
                      help="SINR thresholds (dB)")
    t_grid.add_argument("--t-grid", default="0:12:0.25", dest="t_grid",
                        help="spectral-efficiency thresholds (bits/s/Hz)")
    out.add_argument("--out", default=None,
                     help="output file path (default: in --out-dir)")

    p = sub.add_parser("losball", help="LOS-ball radius sweep CSV")
    p.add_argument("--rnet-grid", default="1:20:0.5", help="network radii (m)")
    p.add_argument("--lambda-family", default=None,
                   help="densities, one curve each (default: config value)")
    sub.add_parser("coverage", parents=[beta, out], help="analytic SINR CCDF CSV")
    sub.add_parser("simulate", parents=[mode, trials, beta, out],
                   help="Monte Carlo SINR CCDF CSV")
    sub.add_parser("se-cdf", parents=[mode, trials, t_grid, out],
                   help="Monte Carlo spectral-efficiency CDF CSV")
    p = sub.add_parser("compare", parents=[trials, beta, t_grid],
                       help="analytic-vs-simulation comparison")
    p.add_argument("--kind", choices=tuple(_COMPARE_KINDS), required=True)
    p.add_argument("--tolerance", type=float, default=None,
                   help="gate: sup-norm (coverage/se) or stderr multiple")
    p.add_argument("--m-grid", default="1,2,4,8,16", dest="m_grid")
    p.add_argument("--lambda-grid", default="1,2,3,4,5", dest="lambda_grid")
    p = sub.add_parser("figure-config", parents=[out],
                       help="emit a canonical figure config")
    p.add_argument("--figure", choices=experiments.FIGURE_IDS, required=True)
    return parser


def _out_path(args, default_name):
    return args.out or os.path.join(args.out_dir, default_name)


def _write_columns(args, default_name, header, cfg, *columns):
    """One CSV of ``columns`` side by side, at --out or in --out-dir."""
    return [experiments.write_csv(_out_path(args, default_name), header,
                                  list(zip(*columns)), cfg, args.seed)]


def _run_plan(args, kind, grid, family=None, **fields):
    """Build and run one plan of ``kind`` over the grid text ``grid``.

    The config is read before any grid is parsed, and the density
    ``family`` text, if any, before ``grid``; ``fields`` are the plan's
    other fields.
    """
    cfg = load_config_with_env(args.config)
    family = tuple(parse_grid(family)) if family else ()
    plan = experiments.ExperimentPlan(
        kind=kind, config=cfg, grid=tuple(parse_grid(grid)), out_dir=args.out_dir,
        seed=args.seed, workers=args.threads, density_family=family, **fields)
    return experiments.run_plan(plan)["files"]


def cmd_losball(args):
    return _run_plan(args, "losball_sweep", args.rnet_grid, args.lambda_family)


def cmd_coverage(args):
    cfg = load_config_with_env(args.config)
    beta_db = parse_grid(args.beta_grid_db)
    ccdf = analytic.coverage_ccdf(db_to_linear(beta_db), analytic.coverage_params(cfg))
    return _write_columns(args, "coverage.csv", ("beta_dB", "ccdf_analytic"), cfg,
                          beta_db, ccdf)


def cmd_simulate(args):
    cfg = load_config_with_env(args.config)
    beta_db = parse_grid(args.beta_grid_db)
    dist = mcsim.simulate_ccdf(args.mode, cfg, args.trials,
                               db_to_linear(beta_db), args.seed, args.threads)
    return _write_columns(args, f"simulate_{args.mode}.csv",
                          ("beta_dB", "ccdf", "stderr"), cfg, beta_db, dist.ccdf,
                          dist.stderr)


def cmd_se_cdf(args):
    cfg = load_config_with_env(args.config)
    t_grid = parse_grid(args.t_grid)
    dist = mcsim.simulate_se_ccdf(args.mode, cfg, args.trials, t_grid,
                                  args.seed, args.threads)
    return _write_columns(args, f"se_cdf_{args.mode}.csv",
                          ("eta_bps_hz", "cdf", "stderr"), cfg, t_grid, dist.cdf,
                          dist.stderr)


def cmd_compare(args):
    kind, grid_arg = _COMPARE_KINDS[args.kind]
    return _run_plan(args, kind, getattr(args, grid_arg), trials=args.trials,
                     tolerance=args.tolerance)


def cmd_figure_config(args):
    return [experiments.emit_figure_config(
        args.figure, _out_path(args, f"{args.figure}.cfg"))]


_COMMANDS = {
    "losball": cmd_losball,
    "coverage": cmd_coverage,
    "simulate": cmd_simulate,
    "se-cdf": cmd_se_cdf,
    "compare": cmd_compare,
    "figure-config": cmd_figure_config,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_int("SEED", _PLAN.seed)
        if args.threads is None:
            args.threads = _env_int("THREADS", _PLAN.workers)
        # the run counts are refused by name before the config is read
        mcsim.check_run(getattr(args, "trials", 1), args.seed, args.threads)
        print("\n".join(_COMMANDS[args.command](args)))
        return 0
    except experiments.ToleranceExceeded as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (ValueError, experiments.IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a run too large for this machine is a bad argument, not a failed gate
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
