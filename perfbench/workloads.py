"""The three benchmark workloads: inputs, child commands, reference checks.

Each workload writes its system file and computes its reference results
once per session through the executable specification (the object-level
round protocol in ``distributed`` and ``central.rls_update_gamma``), before
any timing.  An iteration is a list of child commands; ``check`` returns
the problems found in their outputs, an empty list when all are correct.

System files use fixed module orders whose layout and coefficients are
drawn from the seed, so that every seed costs the same amount of work.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from misoid import central, distributed, experiment, fir, lyapunov

#: final estimates must match the reference to this share of max(1, max |theta|);
#: the kernels agree with the protocol to ~1e-15, a reordered kernel to ~1e-12
THETA_RTOL = 1e-9
#: final Lyapunov value W_N = W + deltaW of the last monitor row, relative
W_RTOL = 1e-6
#: relative and absolute change applied to stored references by --corrupt-reference
CORRUPTION = 1e-3

CHILD = Path(__file__).resolve().parent / "child.py"

SIZES = {
    "full": {
        "paper_run": {"orders": list(range(1, 11)) * 2, "samples": 3500},
        "monitor_certify": {"orders": list(range(1, 11)) * 2, "samples": 1500},
        "mc_many_modules": {"orders": [1, 2] * 50, "samples": 600, "runs": 2},
    },
    "tiny": {
        "paper_run": {"orders": [1, 2, 3, 2], "samples": 200},
        "monitor_certify": {"orders": [1, 2, 3, 2], "samples": 120},
        "mc_many_modules": {"orders": [1, 2] * 4, "samples": 100, "runs": 2},
    },
}

SIGMA = 0.1
GAMMA = 100.0
INIT_C = 100.0
_STREAM_BENCH_SYSTEM = 101  # benchmark-owned stream label for system draws
_STREAM_MC_NOISE = 3  # experiment's Monte Carlo noise stream label


def _corrupt(x):
    return x * (1.0 + CORRUPTION) + CORRUPTION


def make_system(orders, seed: int) -> fir.MisoSystem:
    rng = np.random.default_rng([seed, _STREAM_BENCH_SYSTEM])
    layout = rng.permutation(len(orders))
    modules = tuple(fir.FirModule(rng.normal(0.0, 1.0, size=orders[i])) for i in layout)
    return fir.MisoSystem(modules)


def _config(system, seed, sigma, samples) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig(
        seed=seed, m=system.m, order_range=(min(system.orders), max(system.orders)),
        noise_std=sigma, gamma=GAMMA, init_c=INIT_C, samples=samples,
    )


def central_reference(system, inputs, ys, noise_var) -> central.CentralState:
    phis = experiment.build_regressors(system, inputs)
    state = central.from_scratch_init(system.n, INIT_C, noise_var=noise_var, mode="gamma")
    for k in range(len(ys)):
        state = central.rls_update_gamma(state, phis[k], ys[k], GAMMA)
    return state


def distributed_reference(system, inputs, ys, noise_var) -> distributed.BlockState:
    nodes = distributed.init_nodes(system.orders, INIT_C, GAMMA)
    center = distributed.FusionCenter(noise_var=noise_var, m=system.m)
    bank = fir.RegressorBank.for_system(system)
    for k in range(len(ys)):
        bank = fir.push_inputs(bank, inputs[k])
        nodes, _ = distributed.run_round(nodes, center, bank, ys[k], k=k)
    return distributed.stack(nodes)


def _theta_problem(label, theta, ref) -> str | None:
    if theta.shape != ref.shape or not np.all(np.isfinite(theta)):
        return f"{label}: estimate has shape {theta.shape} or non-finite values"
    dev = float(np.max(np.abs(theta - ref)))
    limit = THETA_RTOL * max(1.0, float(np.max(np.abs(ref))))
    if not dev <= limit:
        return f"{label}: final estimate deviates {dev:.3e} from the reference (limit {limit:.3e})"
    return None


def csv_shape_and_last_row(path: Path):
    """(rows, columns of every row or None if ragged) and the last row as floats."""
    data = path.read_bytes()
    header, _, body = data.partition(b"\n")
    rows = body.count(b"\n")
    cols = header.count(b",") + 1
    uniform = body.count(b",") == rows * (cols - 1)
    last = np.array(body.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b","), dtype=float)
    return rows, cols if uniform else None, last


def read_csv(path: Path):
    """Header names and rows of floats; 'inf' parses as infinity."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


class Workload:
    name = ""
    sigma = SIGMA

    def __init__(self, size: str, work: Path):
        self.p = SIZES[size][self.name]
        self.work = work
        self.system_path = work / "system.json"

    def prepare(self, seed: int, corrupt: bool):
        self.seed = seed
        self.work.mkdir(parents=True, exist_ok=True)
        self.system = make_system(self.p["orders"], seed)
        fir.save_system(self.system, self.system_path)
        self.compute_references()
        if corrupt:
            self.refs = {k: _corrupt(v) for k, v in self.refs.items()}

    def run_flags(self) -> list[str]:
        return [
            "--system", str(self.system_path), "--samples", str(self.p["samples"]),
            "--sigma", repr(self.sigma), "--gamma", repr(GAMMA), "--init-c", repr(INIT_C),
            "--seed", str(self.seed),
        ]

    def setup_command(self) -> list[str]:
        return self.child(None, 0, 0) + ["setup"] + self.run_flags()

    def calibrate_command(self) -> list[str]:
        return self.child(None, 0, 0) + ["calibrate", "--parts", self.calibration,
                                         "--out", str(self.work / "calibration.csv")]

    def child(self, spans_dir, index: int, iteration: int) -> list[str]:
        """child.py, with its span file when traced."""
        cmd = [sys.executable, str(CHILD)]
        if spans_dir is not None:
            spans = spans_dir / f"spans-{index}.json"
            cmd += ["--spans", str(spans), "--iteration", str(iteration)]
        return cmd

    def cli(self, args, spans_dir, index: int, iteration: int) -> list[str]:
        """The misoid CLI as users run it, or in-process under child.py when traced."""
        if spans_dir is None:
            return [sys.executable, "-m", "misoid.cli"] + args
        return self.child(spans_dir, index, iteration) + ["cli"] + args

    def signals(self):
        config = _config(self.system, self.seed, self.sigma, self.p["samples"])
        inputs, noise = experiment.generate_signals(self.system, config)
        phis = experiment.build_regressors(self.system, inputs)
        return inputs, experiment.outputs_from_regressors(self.system, phis, noise)


class PaperRun(Workload):
    name = "paper_run"
    calibration = "dense,csv"

    def compute_references(self):
        inputs, ys = self.signals()
        noise_var = self.sigma**2
        self.refs = {
            "central": central_reference(self.system, inputs, ys, noise_var).theta_hat,
            "distributed": distributed_reference(self.system, inputs, ys, noise_var).theta,
        }

    def outputs(self) -> list[Path]:
        return [self.work / "exp-central.csv", self.work / "exp-distributed.csv"]

    def commands(self, spans_dir, iteration):
        run = ["run", "--mode", "both", *self.run_flags(), "--out-prefix", str(self.work / "exp")]
        a, b = self.outputs()
        compare = ["compare", "--a", str(a), "--b", str(b)]
        return [self.cli(run, spans_dir, 0, iteration), self.cli(compare, spans_dir, 1, iteration)]

    def check(self, children) -> list[str]:
        problems = []
        n, samples = self.system.n, self.p["samples"]
        theta_true = self.system.theta_true()
        for label, path in zip(("central", "distributed"), self.outputs()):
            rows, cols, last = csv_shape_and_last_row(path)
            if (rows, cols) != (samples, n + 4):
                problems.append(f"{label} CSV has {rows} rows of {cols} columns, "
                                f"expected {samples} of {n + 4}")
                continue
            problem = _theta_problem(f"{label} CSV", last[2:2 + n] + theta_true, self.refs[label])
            if problem:
                problems.append(problem)
        if "result: difference=" not in children[1].stdout:
            problems.append("compare printed no difference line")
        return problems


class MonitorCertify(Workload):
    name = "monitor_certify"
    calibration = "monitor"
    sigma = 0.0

    def compute_references(self):
        inputs, ys = self.signals()
        theta_true = self.system.theta_true()
        st = central_reference(self.system, inputs, ys, 0.0)
        blk = distributed_reference(self.system, inputs, ys, 0.0)
        self.refs = {
            "central": np.array(lyapunov.w_quadratic(st.theta_hat - theta_true, st.info_mat)),
            "distributed": np.array(lyapunov.w_quadratic(blk.theta - theta_true, blk.info_b)),
        }

    def outputs(self) -> list[Path]:
        return [self.work / "monitor-central.csv", self.work / "monitor-distributed.csv"]

    def commands(self, spans_dir, iteration):
        cmds = []
        for i, (mode, out) in enumerate(zip(("central", "distributed"), self.outputs())):
            args = ["monitor", "--mode", mode] + self.run_flags() + ["--out", str(out)]
            cmds.append(self.cli(args, spans_dir, i, iteration))
        return cmds

    def check(self, children) -> list[str]:
        problems = []
        if "result: violations=0 " not in children[0].stdout:
            problems.append("central monitor reported violations")
        for label, path in zip(("central", "distributed"), self.outputs()):
            header, rows = read_csv(path)
            if rows.shape[0] != self.p["samples"]:
                problems.append(f"{label} monitor CSV has {rows.shape[0]} rows")
                continue
            col = {name: rows[:, j] for j, name in enumerate(header)}
            if label == "central" and np.any(col["violation_flag"] != 0):
                problems.append("central monitor CSV flags a violation")
            if label == "distributed":
                certified = (col["gamma_sum"] < col["gamma_bound"]) & (col["overline_dW"] < 0)
                bad = np.nonzero(certified & ~(col["deltaW"] < 0))[0]
                if bad.size:
                    problems.append(f"certified step {int(bad[0])} has deltaW >= 0")
            w_final = col["W"][-1] + col["deltaW"][-1]
            ref = float(self.refs[label])
            if not abs(w_final - ref) <= W_RTOL * abs(ref):
                problems.append(f"{label} final W {w_final!r} differs from the reference {ref!r}")
        return problems


class MonteCarloManyModules(Workload):
    name = "mc_many_modules"
    calibration = "blocks"

    def compute_references(self):
        inputs, _ = self.signals()
        phis = experiment.build_regressors(self.system, inputs)
        rng = np.random.default_rng([self.seed, _STREAM_MC_NOISE, 0])
        ys = phis @ self.system.theta_true() + rng.normal(0.0, self.sigma, size=self.p["samples"])
        blk = distributed_reference(self.system, inputs, ys, self.sigma**2)
        self.refs = {"realization_0": blk.theta}

    def outputs(self) -> list[Path]:
        return [self.work / "mc-finals.csv"]

    def commands(self, spans_dir, iteration):
        return [self.child(spans_dir, 0, iteration) + ["mc"] + self.run_flags()
                + ["--runs", str(self.p["runs"]), "--out", str(self.outputs()[0])]]

    def check(self, children) -> list[str]:
        rows = np.loadtxt(self.outputs()[0], delimiter=",", ndmin=2)
        if rows.shape != (self.p["runs"], self.system.n):
            return [f"Monte Carlo finals have shape {rows.shape}"]
        problem = _theta_problem("realization 0", rows[0], self.refs["realization_0"])
        return [problem] if problem else []


WORKLOADS = {w.name: w for w in (PaperRun, MonitorCertify, MonteCarloManyModules)}

