"""Command line front end: solve, converge.

It writes no file: `FlowProblem.run` and `convergence_study` write every
output into the config's `output_dir`, here the current directory if empty.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _levels(text):
    """The --levels list, checked as `convergence_study` checks it."""
    from .convergence import check_levels

    try:
        return check_levels(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _config(path):
    """The --config file, read and parsed, with an empty `output_dir`
    pointed at the current directory; an unreadable or malformed file is
    a usage error."""
    from dataclasses import replace

    from .config import ConfigError, load_config

    try:
        cfg = load_config(path)
    except (OSError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return replace(cfg, output_dir=cfg.output_dir or ".")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Mean curvature flow of spline surfaces with fixed boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a flow configuration")
    s.add_argument("--config", required=True, type=_config, help="path to a config file")

    c = sub.add_parser("converge", help="self-convergence study")
    c.add_argument("--config", required=True, type=_config)
    c.add_argument("--levels", default="4,8,16,32", type=_levels,
                   help="comma-separated elements-per-side, nested")
    return parser


def cmd_solve(args):
    from .flow import FlowProblem

    cfg = args.config
    final = FlowProblem(cfg).run().diagnostics[-1]
    print(f"wrote {Path(cfg.output_dir) / 'diagnostics.csv'}")
    print(
        f"t = {final.time:.6g}  area = {final.area:.9g}  "
        f"max|kappa| = {final.max_abs_kappa:.6g}  "
        f"constraint = {final.constraint_residual:.3e}"
    )
    return 0


def cmd_converge(args):
    from .convergence import convergence_study

    cfg = args.config
    report = convergence_study(cfg, args.levels, t_final=cfg.t_final)
    print(f"wrote {Path(cfg.output_dir) / 'convergence.json'}")
    for var, slope in report.eoc_h1.items():
        print(f"H1 order {var}: {slope:.3f}")
    return 0


def main(argv=None):
    from .config import ConfigError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_converge(args)
    except ConfigError as exc:  # raised by FlowProblem before any set-up or output
        parser.error(f"argument --config: {exc}")


if __name__ == "__main__":
    sys.exit(main())
