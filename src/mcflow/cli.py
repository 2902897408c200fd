"""Command line front end: solve, converge, calibrate."""

from __future__ import annotations

import argparse
import sys


def _levels(text):
    """The --levels list, checked as `convergence_study` checks it."""
    from .convergence import check_levels

    try:
        return check_levels(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _config(path):
    """The --config file, read and parsed; an unreadable or malformed
    file is a usage error."""
    from .config import ConfigError, load_config

    try:
        return load_config(path)
    except (OSError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser():
    from .scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Mean curvature flow of spline surfaces with fixed boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a flow configuration")
    s.add_argument("--config", required=True, type=_config, help="path to a config file")
    s.add_argument("--snapshot-stride", type=int, default=None,
                   help="override the config snapshot stride")
    s.add_argument("--dump-matrices", action="store_true",
                   help="dump the mass, stiffness and constraint matrices "
                        "in MatrixMarket format")

    c = sub.add_parser("converge", help="self-convergence study")
    c.add_argument("--config", required=True, type=_config)
    c.add_argument("--levels", default="4,8,16,32", type=_levels,
                   help="comma-separated elements-per-side, nested")

    k = sub.add_parser("calibrate", help="re-derive a scenario constant")
    k.add_argument("--scenario", required=True, choices=tuple(SCENARIOS))
    return parser


def cmd_solve(args):
    from dataclasses import replace

    from .export import export_vtk, write_diagnostics_csv
    from .flow import FlowProblem, cfg_dir

    cfg = args.config
    if args.snapshot_stride is not None:
        cfg = replace(cfg, snapshot_stride=args.snapshot_stride)
    if args.dump_matrices:
        cfg = replace(cfg, dump_matrices=True)
    cfg = replace(cfg, output_dir=cfg.output_dir or ".")
    result = FlowProblem(cfg).run()
    out = cfg_dir(cfg)
    csv_path = write_diagnostics_csv(result.diagnostics, out / "diagnostics.csv")
    for k, state in result.snapshots:
        export_vtk(result.problem, state, out / f"snapshot_{k:06d}.vtk")
    final = result.diagnostics[-1]
    print(f"wrote {csv_path}")
    print(
        f"t = {final.time:.6g}  area = {final.area:.9g}  "
        f"max|kappa| = {final.max_abs_kappa:.6g}  "
        f"constraint = {final.constraint_residual:.3e}"
    )
    return 0


def cmd_converge(args):
    from .convergence import convergence_study, save_report
    from .flow import cfg_dir

    cfg = args.config
    report = convergence_study(cfg, args.levels, t_final=cfg.t_final)
    out = cfg_dir(cfg)
    path = save_report(report, out / "convergence.json")
    print(f"wrote {path}")
    for var, slope in report.eoc_h1.items():
        print(f"H1 order {var}: {slope:.3f}")
    return 0


def cmd_calibrate(args):
    from .scenarios import SCENARIOS

    entry = SCENARIOS[args.scenario]
    value = entry.calibrate()
    print(
        f"{entry.constant}: {value!r} (stored {entry.stored!r}, "
        f"diff {abs(value - entry.stored):.3e})"
    )
    return 0


def main(argv=None):
    from .config import ConfigError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "converge":
            return cmd_converge(args)
    except ConfigError as exc:  # raised by FlowProblem before any set-up or output
        parser.error(f"argument --config: {exc}")
    return cmd_calibrate(args)


if __name__ == "__main__":
    sys.exit(main())
