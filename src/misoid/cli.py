"""Command-line front end.

Subcommands: gen-system, run, monitor, compare.  Exit codes: 0 success,
1 usage error, 2 runtime/numeric error or an array that cannot be
allocated, 3 I/O error.  All machine-readable stdout lines are prefixed
``info:`` or ``result:``.  Each command imports what it needs when it runs, so
``compare``, which reads its floats through ``csvcolumns``, loads no numpy,
and only ``monitor`` and ``run --monitor`` load ``lyapunov``.
``run --mode both`` draws its data once and runs one process per
estimator: a forked child runs the central estimator and writes its CSV
to a temporary file beside its target while this process does the same
for the distributed one.  The temporaries are renamed onto their targets
only when both succeed, and every line is printed by this process, in
mode order.  Importing this module sets
OPENBLAS_THREAD_TIMEOUT to 20 unless it is set.  The ``misoid`` script and
``python -m misoid.cli`` run ``entry``, which is ``main`` without the cyclic
garbage collector; ``main`` leaves the collector as it finds it.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import warnings

# an idle OpenBLAS worker spins 2^20 cycles, not 2^28, before it sleeps; the
# thread count and so the bytes are unchanged, and an exported value wins
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

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


def _draw(args):
    """The system file, its one draw of regressors and outputs, and the run's config."""
    from .experiment import ExperimentConfig, draw
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
    system = load_system(args.system)
    return (system, *draw(system, config), config)


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


def _job(mode, system, phis, ys, config, monitor, target, temp):
    """mode's estimator, with its monitor if asked, and its CSV written to
    temp, under main's error mapping: the exit code, and the stdout and
    stderr it would print.  An I/O error on temp names target."""
    import contextlib
    import io

    from . import experiment  # the writer is looked up when it runs

    def estimate():
        traj = experiment.run_estimator(mode, system, phis, ys, config, monitor)
        try:
            experiment.write_trajectory_csv(traj, temp)
        except OSError as exc:
            if exc.filename == temp:
                exc.filename = target
            raise
        print(f"info: wrote {target}")
        if traj.samples:
            print(f"result: {mode} final_err_norm_sq={traj.final_err_norm_sq():.17g}")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _guarded(estimate)
    return code or EXIT_OK, out.getvalue(), err.getvalue()


def _fork_writer(job):
    """Fork a child that runs job; return its pid and this process's end of
    the pipe it reports on, or None when this process cannot fork, and then
    it runs job itself.

    The child reports job's outcome as one JSON line, or a traceback and
    exit 1 for an unexpected error.  It prints nothing and leaves through
    os._exit, so nothing of the caller (buffered stdout, exit handlers, a
    test runner's teardown) runs or flushes in it.  OpenBLAS joins its
    worker threads at fork, so the process forks with one thread.
    """
    import json
    import signal  # here, not at the top: building its enums costs about 1 ms

    try:
        # with SIGCHLD ignored the child is reaped unseen and its exit code lost
        if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
            return None
    except AttributeError:  # no SIGCHLD on this platform
        return None
    reports, report = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform, or fork() failed
        os.close(reports)
        os.close(report)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(reports)
            try:
                outcome = job()
            except BaseException:  # ends the job as it would end a process
                import traceback

                outcome = (1, "", traceback.format_exc())
            with os.fdopen(report, "w") as pipe:
                pipe.write(json.dumps(outcome) + "\n")
            code = EXIT_OK
        finally:
            os._exit(code)
    os.close(report)
    return pid, os.fdopen(reports, "rb")


def cmd_run(args) -> int:
    import functools
    import json

    system, phis, ys, config = _draw(args)
    # each job writes its CSV to a temporary beside its target, all but the
    # last in a forked child; the temporaries are renamed onto their targets,
    # in mode order, only when every job succeeded; else the first failure is printed
    targets = [f"{args.out_prefix}-{mode}.csv" for mode in config.modes]
    temps = [f"{target}.{os.getpid()}.tmp" for target in targets]
    jobs = [functools.partial(_job, mode, system, phis, ys, config, args.monitor, target, temp)
            for mode, target, temp in zip(config.modes, targets, temps)]
    children, codes = {}, {}  # each forked job's pid and report pipe, and exit code
    try:
        try:
            for i, job in enumerate(jobs[:-1]):
                if child := _fork_writer(job):
                    children[i] = child
            outcomes = [None if i in children else job() for i, job in enumerate(jobs)]
            for i, (_, reports) in children.items():
                outcomes[i] = reports.readline()
        finally:
            # no child is left, nor writes, once the temporaries are removed
            for i, (pid, reports) in children.items():
                reports.close()
                codes[i] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        for i, code in codes.items():
            how = f"was ended by signal {-code}" if code < 0 else f"ended with exit code {code}"
            outcomes[i] = json.loads(outcomes[i]) if outcomes[i] else (
                EXIT_IO, "", f"error: I/O failure: the writer of {targets[i]} {how}\n")
        for code, out, err in outcomes:
            if code:
                sys.stdout.write(out)
                sys.stderr.write(err)
                return code
        for temp, target, (_, out, err) in zip(temps, targets, outcomes):
            try:
                os.replace(temp, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, target) from None
            sys.stdout.write(out)
            sys.stderr.write(err)
        return EXIT_OK
    finally:
        for temp in temps:
            try:
                os.unlink(temp)
            except OSError:  # renamed, or never written
                pass


def cmd_monitor(args) -> int:
    from .experiment import run_estimator
    from .lyapunov import write_monitor_csv

    system, phis, ys, config = _draw(args)
    traj = run_estimator(args.mode, system, phis, ys, config, monitor=True)
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
    from .csvcolumns import first_crossing, read_columns

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


def entry() -> int:
    """main() on this process's arguments, with the cyclic GC off for good.

    The collector is disabled before any command imports numpy, and every
    object is frozen once main returns, so no collection walks numpy's
    import graph: not during the imports, not in the forked writer of
    ``run --mode both``, which inherits the setting, and not at exit, whose
    last collection skips frozen objects.  Exit handlers and the flushing
    of stdout and stderr still run.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


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
    sys.exit(entry())
