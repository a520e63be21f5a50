"""Command-line front end.

Subcommands: gen-system, run, monitor, compare.  Exit codes: 0 success,
1 usage error, 2 runtime/numeric error or an array that cannot be
allocated, 3 I/O error.  All machine-readable stdout lines are prefixed
``info:`` or ``result:``.  Each command imports what it needs when it runs, so
``compare``, which reads its floats through ``csvcolumns``, loads no numpy.
Importing this module sets OPENBLAS_THREAD_TIMEOUT to 20 unless it is set.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

# an idle OpenBLAS worker spins 2^20 cycles, not 2^28, before it sleeps; the
# thread count and so the bytes are unchanged, and an exported value wins
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .csvcolumns import first_crossing, read_columns
from .errors import MisoidError, ParameterError

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
    run.add_argument("--mode", choices=["central", "distributed", "both"], default="both")
    _add_run_flags(run, sigma=0.1)
    run.add_argument("--monitor", action="store_true")
    run.add_argument("--out-prefix", required=True)

    mon = sub.add_parser("monitor", help="run with monitoring, write monitor CSV")
    mon.add_argument("--mode", choices=["central", "distributed"], required=True)
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
    sub.add_argument("--samples", type=int, default=500)
    sub.add_argument("--sigma", type=float, default=sigma)
    sub.add_argument("--gamma", type=float, default=100.0)
    sub.add_argument("--init-c", type=float, default=100.0)
    sub.add_argument("--seed", type=int, default=0)


def _run_trajectories(args, monitor: bool):
    """Run the configured estimators on the system file."""
    from .experiment import ExperimentConfig, run_experiment
    from .fir import load_system

    # m and order_range only shape random_system; a system file's own
    # module orders are not bounded by them
    config = ExperimentConfig(
        seed=args.seed,
        noise_std=args.sigma,
        gamma=args.gamma,
        init_c=args.init_c,
        samples=args.samples,
        mode=args.mode,
    )
    result = run_experiment(config, load_system(args.system), monitor=monitor)
    return [traj for traj in (result.central, result.distributed) if traj is not None]


def cmd_gen_system(args) -> int:
    from .experiment import ExperimentConfig, random_system
    from .fir import save_system

    config = ExperimentConfig(
        seed=args.seed,
        m=args.modules,
        order_range=(args.min_order, args.max_order),
        param_std=args.param_std,
    )
    system = random_system(config)
    save_system(system, args.out)
    print(f"info: wrote system file {args.out}")
    print(f"result: n={system.n} orders={','.join(str(o) for o in system.orders)}")
    return EXIT_OK


def _fork_writer(traj, path) -> int | None:
    """Write traj's CSV in a forked child and return its pid; None when
    this process cannot fork or could not learn how the child ended, and
    then it writes the file itself.

    The child writes straight from the arrays it shares with this process,
    reports a failure through main's mapping and leaves through os._exit,
    so nothing of the caller (buffered stdout, exit handlers, a test
    runner's teardown) runs or flushes in it.  OpenBLAS joins its worker
    threads at fork, so the process forks with one thread.
    """
    import signal  # here, not at the top: building its enums costs about 1 ms

    from .experiment import write_trajectory_csv

    pid = None
    try:
        # with SIGCHLD ignored the child is reaped unseen and its exit code lost
        if signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN:
            pid = os.fork()
    except (AttributeError, OSError):  # no SIGCHLD or os.fork on this platform, or fork() failed
        pass
    if pid is None:
        write_trajectory_csv(traj, path)
    elif pid == 0:
        code = 1
        try:
            code = _guarded(write_trajectory_csv, traj, path) or EXIT_OK
        except BaseException:  # ends the child as it would end a process: traceback, exit 1
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)
    return pid


def _reap(pid, path):
    """Wait for the child writing path, if any: None when it succeeded,
    the exit code of a failure it has printed, or an OSError when a signal
    ended it."""
    if pid is None:
        return None
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        return OSError(f"the writer of {path} was ended by signal {-code}")
    return code or None


def cmd_run(args) -> int:
    from .experiment import write_trajectory_csv

    trajs = _run_trajectories(args, monitor=args.monitor)
    paths = [f"{args.out_prefix}-{traj.mode}.csv" for traj in trajs]
    # every file but the last is written by a forked child while this
    # process writes the last; then the files are reported in mode order,
    # up to the first that failed, whose error alone is printed
    pids, error = [], None
    try:
        for traj, path in zip(trajs[:-1], paths):
            pids.append(_fork_writer(traj, path))
        write_trajectory_csv(trajs[-1], paths[-1])
    except Exception as exc:
        error = exc
    finally:
        outcomes = [_reap(pid, path) for pid, path in zip(pids, paths)]
    for traj, path, outcome in zip(trajs, paths, outcomes + [error]):
        if isinstance(outcome, Exception):
            raise outcome
        if outcome:
            return outcome  # the child has printed its error
        print(f"info: wrote {path}")
        if traj.samples:
            print(f"result: {traj.mode} final_err_norm_sq={traj.final_err_norm_sq():.17g}")
    return EXIT_OK


def cmd_monitor(args) -> int:
    from .lyapunov import write_monitor_csv

    (traj,) = _run_trajectories(args, monitor=True)
    if not traj.samples:
        print("error: no samples to monitor", file=sys.stderr)
        return EXIT_USAGE
    report = traj.monitor
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
        values = read_columns(path, [args.metric])[args.metric]
        crossing = first_crossing(values, args.threshold_frac, args.metric)
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
    return _guarded(_COMMANDS[args.command], args)


def _guarded(fn, *args):
    """fn(*args), or the exit code of the error it raised, printed as one
    ``error:`` line."""
    try:
        # every non-finite value meets an explicit check that exits 2, so
        # numpy's floating-point warnings would only repeat it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return fn(*args)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MisoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
