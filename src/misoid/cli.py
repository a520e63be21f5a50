"""Command-line front end.

Subcommands: gen-system, run, monitor, compare.  Exit codes: 0 success,
1 usage error, 2 runtime/numeric error, 3 I/O error.  All machine-readable
stdout lines are prefixed ``info:`` or ``result:``.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import MisoidError, ParameterError
from .experiment import (
    ExperimentConfig,
    first_crossing,
    random_system,
    read_trajectory_csv,
    run_experiment,
    write_trajectory_csv,
)
from .fir import load_system, save_system
from .lyapunov import write_monitor_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="misoid")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-system", help="draw a random MISO FIR system")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--modules", type=int, default=2)
    gen.add_argument("--min-order", type=int, default=1)
    gen.add_argument("--max-order", type=int, default=3)
    gen.add_argument("--param-std", type=float, default=1.0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run estimators on a system file")
    _add_run_flags(run, sigma=0.1)
    run.add_argument("--monitor", action="store_true")
    run.add_argument("--out-prefix", required=True)

    mon = sub.add_parser("monitor", help="run with monitoring, write monitor CSV")
    # the decrease checks hold for noise-free runs, so monitor defaults to sigma 0
    _add_run_flags(mon, sigma=0.0)
    mon.add_argument("--out", required=True)

    cmp_ = sub.add_parser("compare", help="compare two trajectory CSVs")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--metric", default="err_norm_sq")
    cmp_.add_argument("--threshold-frac", type=float, default=0.01)

    return parser


def _add_run_flags(sub, sigma: float):
    sub.add_argument("--system", required=True)
    sub.add_argument("--mode", choices=["central", "distributed", "both"], default="both")
    sub.add_argument("--samples", type=int, default=500)
    sub.add_argument("--sigma", type=float, default=sigma)
    sub.add_argument("--gamma", type=float, default=100.0)
    sub.add_argument("--init-c", type=float, default=100.0)
    sub.add_argument("--seed", type=int, default=0)


def _config_for(args) -> ExperimentConfig:
    # m and order_range only shape random_system; a system file's own
    # module orders are not bounded by them
    return ExperimentConfig(
        seed=args.seed,
        noise_std=args.sigma,
        gamma=args.gamma,
        init_c=args.init_c,
        samples=args.samples,
        mode=args.mode,
    )


def _run_trajectories(args, monitor: bool):
    """Run the configured estimators on the system file."""
    result = run_experiment(_config_for(args), load_system(args.system), monitor=monitor)
    return [traj for traj in (result.central, result.distributed) if traj is not None]


def cmd_gen_system(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        m=args.modules,
        order_range=(args.min_order, args.max_order),
        param_std=args.param_std,
        noise_std=0.0,
    )
    system = random_system(config)
    save_system(system, args.out)
    print(f"info: wrote system file {args.out}")
    print(f"result: n={system.n} orders={','.join(str(o) for o in system.orders)}")
    return EXIT_OK


def cmd_run(args) -> int:
    for traj in _run_trajectories(args, monitor=args.monitor):
        path = f"{args.out_prefix}-{traj.mode}.csv"
        write_trajectory_csv(traj, path)
        print(f"info: wrote {path}")
        if traj.samples:
            print(f"result: {traj.mode} final_err_norm_sq={traj.final_err_norm_sq():.17g}")
    return EXIT_OK


def cmd_monitor(args) -> int:
    if args.mode == "both":
        print("error: monitor needs --mode central or distributed", file=sys.stderr)
        return EXIT_USAGE
    (traj,) = _run_trajectories(args, monitor=True)
    report = traj.monitor
    if report is None:
        print("error: no samples to monitor", file=sys.stderr)
        return EXIT_USAGE
    write_monitor_csv(report, args.out)
    print(f"info: wrote {args.out}")
    if args.sigma > 0:
        print(f"info: sigma={args.sigma:g} > 0: violations (steps with deltaW > 0) "
              "then include noise-driven increases")
    print(
        f"result: violations={len(report.violations)} "
        f"orthogonal_steps={len(report.orthogonal_steps)}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    if not (math.isfinite(args.threshold_frac) and args.threshold_frac >= 0):
        raise ParameterError(
            f"--threshold-frac={args.threshold_frac!r} is out of range: need a finite value >= 0"
        )
    results = []
    for label, path in (("a", args.a), ("b", args.b)):
        cols = read_trajectory_csv(path)
        if args.metric not in cols:
            print(f"error: {path} has no column {args.metric!r}", file=sys.stderr)
            return EXIT_USAGE
        crossing = first_crossing(cols[args.metric], args.threshold_frac, args.metric)
        results.append(crossing)
        shown = crossing if crossing is not None else "none"
        print(f"result: {label}={path} first_crossing={shown}")
    if results[0] is not None and results[1] is not None:
        print(f"result: difference={results[1] - results[0]}")
    else:
        print("result: difference=undefined")
    return EXIT_OK


_COMMANDS = {
    "gen-system": cmd_gen_system,
    "run": cmd_run,
    "monitor": cmd_monitor,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        # every non-finite value meets an explicit check that exits 2, so
        # numpy's floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MisoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
