"""Command-line front end.

Subcommands: gen-system, run, monitor, compare.  Exit codes: 0 success,
1 usage error, 2 runtime/numeric error or an array that cannot be
allocated, 3 I/O error.  All machine-readable stdout lines are prefixed
``info:`` or ``result:``.  Each command imports what it needs when it runs, so
``compare``, which reads its floats through ``csvcolumns``, loads no numpy,
and only ``monitor`` and ``run --monitor`` load ``lyapunov``.
``run`` and ``monitor`` draw their data once, and each estimator writes
its CSV to a temporary ``<target>.<pid>.tmp``; the temporaries are renamed
onto their targets only when every estimator and write succeeded, and
every line is printed by this process, in mode order.  ``run --mode both``
runs the central estimator in a forked child, which reports its exit code
through its exit status and its lines through a pipe.  Importing this
module sets OPENBLAS_THREAD_TIMEOUT to 20 unless it is set.  The
``misoid`` script and ``python -m misoid.cli`` run ``entry``, which is
``main`` without the cyclic garbage collector; ``main`` leaves the
collector as it finds it.
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


def _fork(job, *args):
    """Fork a child that runs job(*args); return its pid and this process's
    end of the pipe it reports on, or None when this process cannot fork,
    and then it runs job itself.

    job returns an exit code and a text.  The child writes the text to the
    pipe and ends with the code, or with a traceback and exit 1 for an
    unexpected error.  It prints nothing and leaves through os._exit, so
    nothing of the caller (buffered stdout, exit handlers, a test runner's
    teardown) runs or flushes in it.  OpenBLAS joins its worker threads at
    fork, so the process forks with one thread.
    """
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
                code, text = job(*args)
            except BaseException:  # ends the job as it would end a process
                import traceback

                text = traceback.format_exc()
            with open(report, "w", errors="surrogateescape") as pipe:
                pipe.write(text)
        finally:
            os._exit(code)
    os.close(report)
    return pid, open(reports, errors="surrogateescape")


def _commit(args, monitor, target_of, finish) -> int:
    """Draw once, then run each mode's estimator, with its monitor if asked,
    and finish(traj, temp), which writes its CSV to temp and returns the
    lines printed after ``info: wrote <target_of(mode)>``.

    Every job but the last runs in a forked child.  The temporaries lie
    beside their targets and are renamed onto them, in mode order, only
    when every job succeeded; else the first failure in mode order is
    printed.  An I/O error on a temporary names its target.
    """
    from .experiment import run_estimator

    system, phis, ys, config = _draw(args)
    targets = [target_of(mode) for mode in config.modes]
    temps = [f"{path}.{os.getpid()}.tmp" for path in targets]

    def job(mode, target, temp):
        """The job's exit code, and its lines or its one error line."""
        try:
            traj = run_estimator(mode, system, phis, ys, config, monitor)
            try:
                return EXIT_OK, f"info: wrote {target}\n{finish(traj, temp)}"
            except OSError as exc:
                if exc.filename == temp:
                    exc.filename = target
                raise
        except (OSError, MisoidError, MemoryError) as exc:
            return _failure(exc)

    jobs = list(zip(config.modes, targets, temps))
    # each job's exit code and text; each forked job's pid and report pipe
    outcomes, children = [None] * len(jobs), {}
    try:
        try:
            for i, params in enumerate(jobs[:-1]):
                if child := _fork(job, *params):
                    children[i] = child
            for i, params in enumerate(jobs):
                if i not in children:
                    outcomes[i] = job(*params)
        finally:
            # no child is left, nor writes, once the temporaries are removed
            for i, (pid, reports) in children.items():
                with reports:
                    text = reports.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was ended by signal {-code}" if code < 0 else f"ended with exit code {code}"
                outcomes[i] = (code, text) if text and code >= 0 else (
                    EXIT_IO, f"error: I/O failure: the writer of {targets[i]} {how}\n")
        for code, text in outcomes:
            if code:
                sys.stderr.write(text)
                return code
        for temp, target, (_, text) in zip(temps, targets, outcomes):
            try:
                os.replace(temp, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, target) from None
            sys.stdout.write(text)
        return EXIT_OK
    finally:
        for temp in temps:
            try:
                os.unlink(temp)
            except OSError:  # renamed, or never written
                pass


def cmd_run(args) -> int:
    from .experiment import write_trajectory_csv

    def finish(traj, temp):
        write_trajectory_csv(traj, temp)
        if not traj.samples:
            return ""
        return f"result: {traj.mode} final_err_norm_sq={traj.final_err_norm_sq():.17g}\n"

    return _commit(args, args.monitor, lambda mode: f"{args.out_prefix}-{mode}.csv", finish)


def cmd_monitor(args) -> int:
    from .lyapunov import write_monitor_csv

    def finish(traj, temp):
        if not traj.samples:
            raise ParameterError("no samples to monitor")
        report = traj.monitor
        write_monitor_csv(report, temp)
        noise = (f"info: sigma={args.sigma:g} > 0: violations (steps with deltaW > 0) "
                 "then include noise-driven increases\n") if args.sigma > 0 else ""
        return noise + (f"result: violations={len(report.violations)} "
                        f"orthogonal_steps={len(report.orthogonal_steps)}\n")

    return _commit(args, True, lambda mode: args.out, finish)


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


def _failure(exc):
    """The exit code and the one ``error:`` line of an error main maps."""
    if isinstance(exc, OSError):
        return EXIT_IO, f"error: I/O failure: {exc}\n"
    if isinstance(exc, MemoryError):
        return EXIT_RUNTIME, f"error: out of memory: {exc}\n"
    return (EXIT_USAGE if isinstance(exc, ParameterError) else EXIT_RUNTIME), f"error: {exc}\n"


def _guarded(fn, *args):
    """fn(*args), or the exit code of the error it raised, printed as one
    ``error:`` line."""
    try:
        # every non-finite value meets an explicit check that exits 2, so
        # numpy's floating-point warnings would only repeat it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return fn(*args)
    except (OSError, MisoidError, MemoryError) as exc:
        code, text = _failure(exc)
        sys.stderr.write(text)
        return code


if __name__ == "__main__":
    sys.exit(entry())
