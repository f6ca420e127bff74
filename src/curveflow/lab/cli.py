"""Command-line entry point: scenario runs, acceptance batches, oracle
queries, and parabolic rescaling of saved trajectories.

Exit status: 0 on success, 1 when a check fails, 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ..errors import ConfigError, CurveflowError
from .. import oracle as oc
from .. import rescale as rs
from . import artifacts, runner, scenarios

DEFAULT_OUT = "runs"


def _out_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("CURVEFLOW_OUT")
    return Path(env) if env else Path(DEFAULT_OUT)


def _cmd_run(args) -> int:
    """Run a config file's scenarios (`run`) or the built-in catalog (`accept`)."""
    try:
        if args.config is None:
            scenario_list = scenarios.builtin_catalog()
        else:
            scenario_list = scenarios.parse_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        scenario_list = [s for s in scenario_list if s.kind == args.kind]
    if not scenario_list:
        print("config defines no scenarios" if args.kind is None
              else f"no scenarios of kind {args.kind!r}", file=sys.stderr)
        return 2
    out = _out_root(args.out)
    reports, _, status = runner.accept(scenario_list, out)
    print(runner.format_table(reports))
    print(f"summary: {out / 'summary.json'}")
    return status


def _cmd_oracle(args) -> int:
    try:
        if args.kind == "selfcheck":
            cases = oc.selfcheck()
            worst = max(cases.values())
            for name, err in sorted(cases.items()):
                print(f"{name:<18} {err:.3e}")
            ok = worst < oc.SELFCHECK_TOL
            print(f"worst {worst:.3e} ({'pass' if ok else 'FAIL'} "
                  f"at {oc.SELFCHECK_TOL:g})")
            return 0 if ok else 1
        if args.kind in oc.SHRINKER_KINDS:
            if len(args.params) != 2:
                print(f"usage: oracle {args.kind} R0 T", file=sys.stderr)
                return 2
            r0, t = (float(x) for x in args.params)
            print(f"{oc.shrinker_radius(args.kind, r0, t):.12g}")
            return 0
        if args.kind == "power":
            if len(args.params) != 3:
                print("usage: oracle power R0 P T", file=sys.stderr)
                return 2
            r0, p, t = (float(x) for x in args.params)
            print(f"{oc.power_circle_radius(r0, p, t):.12g}")
            return 0
        print(f"unknown oracle kind {args.kind!r} "
              f"(choose from selfcheck, circle, cylinder, sphere, power)",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad parameter: {exc}", file=sys.stderr)
        return 2
    except CurveflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_rescale(args) -> int:
    try:
        cx, cy = (float(x) for x in args.center.split(","))
        scales = [float(x) for x in args.scales.split(",")]
    except ValueError as exc:
        print(f"bad parameter: {exc}", file=sys.stderr)
        return 2
    run_dir = Path(args.trajectory_dir)
    if not (run_dir / "index.json").exists():
        print(f"{run_dir} has no index.json (not a saved trajectory)",
              file=sys.stderr)
        return 2
    try:
        traj = artifacts.load_trajectory(run_dir)
        frames = rs.parabolic_rescale(traj, (cx, cy), args.T, scales)
    except (CurveflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else run_dir / "rescale"
    meta = []
    for i, frame in enumerate(frames):
        fmt = artifacts.FORMATS[type(frame.snapshot)]
        name = f"frame_{i:03d}.{fmt.suffix}"
        artifacts.write_text(out / name, fmt.text(frame.snapshot))
        meta.append({
            "file": name,
            "scale": frame.scale,
            "snapshot_index": frame.snapshot_index,
            "rescaled_time": frame.rescaled_time,
        })
    artifacts.write_json(out / "frames.json", {
        "center": [cx, cy], "reference_time": args.T, "frames": meta,
    })
    print(f"{len(frames)} frame(s) written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Scenario lab for curvature-driven geometric evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.set_defaults(func=_cmd_run, kind=None)

    p_acc = sub.add_parser("accept", help="run the built-in acceptance catalog")
    p_acc.add_argument("--out", default=None)
    p_acc.add_argument("--kind", default=None,
                       help="restrict to scenarios of one kind")
    p_acc.set_defaults(func=_cmd_run, config=None)

    p_or = sub.add_parser("oracle", help="closed-form reference values")
    p_or.add_argument("kind",
                      help="selfcheck | circle | cylinder | sphere | power")
    p_or.add_argument("params", nargs="*")
    p_or.set_defaults(func=_cmd_oracle)

    p_rs = sub.add_parser("rescale",
                          help="parabolic rescaling of a saved trajectory")
    p_rs.add_argument("trajectory_dir")
    p_rs.add_argument("center", help="x,y (curve) or x,0 (axisymmetric)")
    p_rs.add_argument("T", type=float, help="reference time")
    p_rs.add_argument("--scales", default="2,4,8",
                      help="comma-separated dilation factors")
    p_rs.add_argument("--out", default=None)
    p_rs.set_defaults(func=_cmd_rescale)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
