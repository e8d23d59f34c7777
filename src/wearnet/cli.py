"""Command line front end.

Subcommands: losball, coverage, simulate, se-cdf, compare, figure-config.
Global flags --config/--out-dir/--seed/--threads sit before the subcommand;
each can also come from the environment (WEARNET_CONFIG, WEARNET_OUT_DIR,
WEARNET_SEED, WEARNET_THREADS), and any configuration key can be overridden
the same way (e.g. WEARNET_LAMBDA=2 or WEARNET_ALPHA_L=2.0), with explicit
file values losing to the environment and flags beating both.

Exit status: 0 success, 1 a comparison missed its tolerance, 2 bad
configuration/arguments or unwritable output, 3 a numerical failure (an
ArithmeticError such as QuadratureNotConverged).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analytic, experiments, mcsim
from .model import (CONFIG_KEYS, ConfigError, config_from_keys, db_to_linear,
                    parse_key_values)


def parse_grid(text):
    """'start:stop:step' (endpoints inclusive) or comma-separated values.

    A grid with no value, or with a non-finite value or endpoint, is MalformedGrid.
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
    if step <= 0.0 or stop < start or not math.isfinite((stop - start) / step):
        raise ConfigError("MalformedGrid", f"bad grid range {text!r}")
    n = int(round((stop - start) / step))
    grid = start + step * np.arange(n + 1)
    return grid[grid <= stop + 1e-9 * max(1.0, abs(stop))]


def load_config_with_env(path):
    """Load a config file, letting WEARNET_<KEY> environment values override."""
    if path is None:
        raise ConfigError("MissingConfigKey",
                          "this subcommand needs --config (or WEARNET_CONFIG)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_key_values(fh.read())
    except OSError as exc:
        raise experiments.IoError(f"cannot read config {path}: {exc}") from exc
    for key in CONFIG_KEYS:
        env = os.environ.get("WEARNET_" + key.upper())
        if env is not None:
            values[key] = env
    return config_from_keys(values)


def _env(name, fallback):
    return os.environ.get("WEARNET_" + name, fallback)


def _env_int(name, fallback):
    text = _env(name, None)
    if text is None:
        return fallback
    try:
        return int(text)
    except ValueError:
        raise ConfigError("InvalidNumber",
                          f"WEARNET_{name} must be an integer, got {text!r}") from None


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
                        help="master seed for all simulation (default: 0)")
    parser.add_argument("--threads", type=int, default=None,
                        help="simulation worker processes, 0 = auto (default: 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("losball", help="LOS-ball radius sweep CSV")
    p.add_argument("--rnet-grid", default="1:20:0.5", help="network radii (m)")
    p.add_argument("--lambda-family", default=None,
                   help="densities, one curve each (default: config value)")

    p = sub.add_parser("coverage", help="analytic SINR CCDF CSV")
    p.add_argument("--beta-grid-dB", default="-10:30:1", dest="beta_grid_db")
    p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("simulate", help="Monte Carlo SINR CCDF CSV")
    p.add_argument("--mode", choices=(mcsim.FULL, mcsim.LOSBALL), required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--beta-grid-dB", default="-10:30:1", dest="beta_grid_db")
    p.add_argument("--out", default=None)

    p = sub.add_parser("se-cdf", help="Monte Carlo spectral-efficiency CDF CSV")
    p.add_argument("--mode", choices=(mcsim.FULL, mcsim.LOSBALL), required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--t-grid", default="0:12:0.25", dest="t_grid",
                   help="spectral-efficiency thresholds (bits/s/Hz)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="analytic-vs-simulation comparison")
    p.add_argument("--kind", choices=("coverage", "se", "mean-count", "nakagami"),
                   required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tolerance", type=float, default=None,
                   help="gate: sup-norm (coverage/se) or stderr multiple")
    p.add_argument("--beta-grid-dB", default="-10:30:1", dest="beta_grid_db")
    p.add_argument("--t-grid", default="0:12:0.25", dest="t_grid")
    p.add_argument("--m-grid", default="1,2,4,8,16", dest="m_grid")
    p.add_argument("--lambda-grid", default="1,2,3,4,5", dest="lambda_grid")

    p = sub.add_parser("figure-config", help="emit a canonical figure config")
    p.add_argument("--figure", choices=experiments.FIGURE_IDS, required=True)
    p.add_argument("--out", default=None)
    return parser


def _out_path(args, default_name):
    out = getattr(args, "out", None)
    return out if out else os.path.join(args.out_dir, default_name)


def cmd_losball(args):
    cfg = load_config_with_env(args.config)
    family = (tuple(parse_grid(args.lambda_family))
              if args.lambda_family else (cfg.density,))
    plan = experiments.ExperimentPlan(
        kind="losball_sweep", config=cfg, grid=tuple(parse_grid(args.rnet_grid)),
        out_dir=args.out_dir, seed=args.seed, density_family=family)
    result = experiments.run_plan(plan)
    print("\n".join(result["files"]))
    return 0


def cmd_coverage(args):
    cfg = load_config_with_env(args.config)
    beta_db = parse_grid(args.beta_grid_db)
    params = analytic.coverage_params(cfg)
    ccdf = np.asarray(analytic.coverage_ccdf(db_to_linear(beta_db), params))
    path = experiments.write_csv(_out_path(args, "coverage.csv"),
                                 ("beta_dB", "ccdf_analytic"),
                                 list(zip(beta_db, ccdf)), cfg, args.seed)
    print(path)
    return 0


def cmd_simulate(args):
    cfg = load_config_with_env(args.config)
    beta_db = parse_grid(args.beta_grid_db)
    dist = mcsim.simulate_ccdf(args.mode, cfg, args.trials,
                               db_to_linear(beta_db), args.seed, args.threads)
    path = experiments.write_csv(_out_path(args, f"simulate_{args.mode}.csv"),
                                 ("beta_dB", "ccdf", "stderr"),
                                 list(zip(beta_db, dist.ccdf, dist.stderr)),
                                 cfg, args.seed)
    print(path)
    return 0


def cmd_se_cdf(args):
    cfg = load_config_with_env(args.config)
    t_grid = parse_grid(args.t_grid)
    dist = mcsim.simulate_se_ccdf(args.mode, cfg, args.trials, t_grid,
                                  args.seed, args.threads)
    path = experiments.write_csv(_out_path(args, f"se_cdf_{args.mode}.csv"),
                                 ("eta_bps_hz", "cdf", "stderr"),
                                 list(zip(t_grid, dist.cdf, dist.stderr)),
                                 cfg, args.seed)
    print(path)
    return 0


def cmd_compare(args):
    cfg = load_config_with_env(args.config)
    kind_map = {
        "coverage": ("coverage_compare", parse_grid(args.beta_grid_db)),
        "se": ("se_compare", parse_grid(args.t_grid)),
        "mean-count": ("mean_count_sweep", parse_grid(args.lambda_grid)),
        "nakagami": ("nakagami_sweep", parse_grid(args.m_grid)),
    }
    kind, grid = kind_map[args.kind]
    plan = experiments.ExperimentPlan(
        kind=kind, config=cfg, grid=tuple(grid), out_dir=args.out_dir,
        seed=args.seed, trials=args.trials, tolerance=args.tolerance,
        workers=args.threads)
    result = experiments.run_plan(plan)
    print("\n".join(result["files"]))
    return 0


def cmd_figure_config(args):
    path = experiments.emit_figure_config(
        args.figure, _out_path(args, f"{args.figure}.cfg"))
    print(path)
    return 0


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
            args.seed = _env_int("SEED", 0)
        if args.threads is None:
            args.threads = _env_int("THREADS", 1)
        return _COMMANDS[args.command](args)
    except experiments.ToleranceExceeded as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, experiments.IoError, experiments.UnknownFigure,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
