"""One child process of the benchmark: a CLI command or a library call.

    python3 perfbench/child.py [--spans PATH --iteration I] cli <misoid args...>
    python3 perfbench/child.py [--spans PATH --iteration I] mc --system S ... --out F
    python3 perfbench/child.py setup --system S --samples N --sigma X --seed K

``cli`` runs ``misoid.cli.main`` in this process, ``mc`` calls
``experiment.monte_carlo_distributed`` and writes the final estimates, and
``setup`` does what an iteration pays before its first recursion step.
With ``--spans`` the public functions of each misoid module are wrapped in
spans (see tracing.py) and the spans are written to PATH at exit.
"""
from __future__ import annotations

import argparse
import inspect
import os
import sys

from tracing import Tracer


def _count_central_kernel(args, kwargs, result):
    steps, n = args[0].shape
    return {"steps": steps, "flops": steps * (7 * n * n + 6 * n)}


def _count_distributed_kernel(args, kwargs, result):
    phis, offsets = args[0], args[4]
    sizes = [int(b - a) for a, b in zip(offsets[:-1], offsets[1:])]
    steps = phis.shape[0]
    return {
        "steps": steps,
        "block_steps": steps * len(sizes),
        "flops": steps * sum(7 * ni * ni + 6 * ni for ni in sizes),
    }


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _count_monitor_flag(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        return {"monitor": int(bool(sig.bind(*args, **kwargs).arguments.get("monitor")))}

    return count


def _count_state_bytes(args, kwargs, result):
    return {"bytes": result.theta_hat.nbytes + result.sigma_mat.nbytes + result.info_mat.nbytes}


def _float_fields(msg) -> int:
    return sum(isinstance(v, float) for v in vars(msg).values())


def _count_round(args, kwargs, result):
    _, trace = result
    return {"up": sum(_float_fields(u) for u in trace.ups), "down": _float_fields(trace.down)}


def _count_snapshot_bytes(args, kwargs, result):
    return {"bytes": sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))}


def _count_monitor_report(args, kwargs, result):
    return {"records": len(result.records), "violations": len(result.violations)}


def _count_realizations(args, kwargs, result):
    return {"realizations": int(result.shape[0])}


def install_spans(tracer: Tracer):
    from misoid import central, distributed, experiment, fir, kernels, lyapunov

    targets = [
        (fir, "load_system", None),
        (experiment, "generate_signals", None),
        (experiment, "build_regressors", None),
        (experiment, "run_central", _count_monitor_flag(experiment.run_central)),
        (experiment, "run_distributed", _count_monitor_flag(experiment.run_distributed)),
        (experiment, "monte_carlo_distributed", _count_realizations),
        (experiment, "write_trajectory_csv", _count_file_bytes),
        (experiment, "read_trajectory_csv", None),
        (kernels, "central_trajectory", _count_central_kernel),
        (kernels, "distributed_trajectory", _count_distributed_kernel),
        (central, "from_scratch_init", _count_state_bytes),
        (central, "rls_update_gamma", _count_state_bytes),
        (distributed, "init_nodes", None),
        (distributed, "run_round", _count_round),
        (distributed, "stack", _count_snapshot_bytes),
        (lyapunov, "check_trajectory", _count_monitor_report),
        (lyapunov, "write_monitor_csv", _count_file_bytes),
    ]
    for module, attr, count in targets:
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        tracer.install(module, attr, name, count)


def _run_config(system, args, runs: int = 0):
    from misoid.experiment import ExperimentConfig

    return ExperimentConfig(
        seed=args.seed,
        m=system.m,
        order_range=(min(system.orders), max(system.orders)),
        noise_std=args.sigma,
        gamma=args.gamma,
        init_c=args.init_c,
        samples=args.samples,
        monte_carlo_runs=runs,
    )


def _run_flags(parser):
    parser.add_argument("--system", required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--sigma", type=float, required=True)
    parser.add_argument("--gamma", type=float, default=100.0)
    parser.add_argument("--init-c", type=float, default=100.0)
    parser.add_argument("--seed", type=int, required=True)


def cmd_cli(args) -> int:
    from misoid import cli

    return cli.main(args.argv)


def cmd_mc(args) -> int:
    from misoid import experiment, fir

    system = fir.load_system(args.system)
    finals = experiment.monte_carlo_distributed(system, _run_config(system, args, args.runs))
    with open(args.out, "w") as fh:
        for row in finals:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")
    return 0


def cmd_setup(args) -> int:
    from misoid import experiment, fir

    system = fir.load_system(args.system)
    inputs, _ = experiment.generate_signals(system, _run_config(system, args))
    experiment.build_regressors(system, inputs)
    return 0


def _calibrate_blocks(np, rng, path):
    """Many 2x2 blocks per step, like the distributed kernel at m=100."""
    sig = np.eye(40)
    for phi in rng.normal(size=(500, 40)):
        for a in range(0, 40, 2):
            p, blk = phi[a:a + 2], np.ascontiguousarray(sig[a:a + 2, a:a + 2])
            c = blk @ p
            blk = blk - np.outer(c, c) / (1.0 + p @ c)
            sig[a:a + 2, a:a + 2] = 0.5 * (blk + blk.T)


def _calibrate_dense(np, rng, path):
    """Rank-one updates of a 110x110 matrix, like the central kernel."""
    big = np.eye(110)
    for phi in rng.normal(size=(700, 110)):
        c = big @ phi
        big = big - np.outer(c, c) / (1.0 + phi @ c)
        big = 0.5 * (big + big.T)


def _calibrate_csv(np, rng, path):
    """A 17-digit CSV written and read back, like the trajectory CSVs."""
    rows = rng.normal(size=(600, 100))
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")
    with open(path) as fh:
        [[float(x) for x in line.split(",")] for line in fh]


def _calibrate_monitor(np, rng, path):
    """Retained 110x110 snapshots and matrix products, like the monitored runs."""
    mat = rng.normal(size=(110, 110))
    kept = []
    for phi in rng.normal(size=(700, 110)):
        kept.append(mat @ np.outer(phi, phi))
        kept.append(mat.copy())


CALIBRATIONS = {
    "blocks": _calibrate_blocks,
    "dense": _calibrate_dense,
    "csv": _calibrate_csv,
    "monitor": _calibrate_monitor,
}


def cmd_calibrate(args) -> int:
    """Fixed work that never touches misoid, of the kinds a workload does.

    run.py times it next to every iteration to gauge how fast the shared
    machine runs at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    for part in args.parts.split(","):
        CALIBRATIONS[part](np, rng, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--iteration", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    cli_p = sub.add_parser("cli")
    cli_p.add_argument("argv", nargs=argparse.REMAINDER)
    mc_p = sub.add_parser("mc")
    _run_flags(mc_p)
    mc_p.add_argument("--runs", type=int, required=True)
    mc_p.add_argument("--out", required=True)
    setup_p = sub.add_parser("setup")
    _run_flags(setup_p)
    cal_p = sub.add_parser("calibrate")
    cal_p.add_argument("--parts", required=True, help=",".join(CALIBRATIONS))
    cal_p.add_argument("--out", required=True, help="scratch file for the csv part")
    args = parser.parse_args(argv)
    command = {"cli": cmd_cli, "mc": cmd_mc, "setup": cmd_setup, "calibrate": cmd_calibrate}[args.command]

    if args.command == "calibrate":
        return command(args)
    if not args.spans:
        import misoid.cli  # noqa: F401  the import every workload pays

        return command(args)

    tracer = Tracer(args.iteration)
    try:
        with tracer.span(f"child.{args.command}"):
            with tracer.span("cli.import"):
                import misoid.cli  # noqa: F401
            install_spans(tracer)
            return command(args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
