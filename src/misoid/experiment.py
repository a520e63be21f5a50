"""Experiment harness: random systems, signals, side-by-side runs, CSV.

All randomness flows through seeded numpy PCG64 generators with fixed
stream labels, so a (config, seed) pair fully determines the system, the
signals and every trajectory.  The central and distributed estimators in
one experiment always consume the identical signal realization.  The
Lyapunov monitor and the CSV module are imported by the calls that use
them, so a run that neither monitors nor writes a file loads neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import DimensionError, NumericError, ParameterError, check_scale
from .fir import FirModule, MisoSystem, block_offsets

if TYPE_CHECKING:
    from .lyapunov import MonitorReport

# stream labels for the seeded sub-generators
_STREAM_SYSTEM = 0
_STREAM_INPUTS = 1
_STREAM_NOISE = 2
_STREAM_MC_NOISE = 3


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    m: int = 2
    order_range: tuple[int, int] = (1, 3)
    param_std: float = 1.0
    noise_std: float = 0.1
    gamma: float = 100.0
    init_c: float = 100.0
    samples: int = 500
    mode: str = "both"  # central | distributed | both
    monte_carlo_runs: int = 0

    @property
    def modes(self) -> tuple[str, ...]:
        """The estimators this config runs, in mode order."""
        return ("central", "distributed") if self.mode == "both" else (self.mode,)

    def __post_init__(self):
        lo, hi = self.order_range
        if not 1 <= lo <= hi:
            raise ParameterError(
                f"order_range={self.order_range!r} is out of range: need 1 <= lo <= hi")
        for name, least in (("m", 1), ("seed", 0), ("samples", 0), ("monte_carlo_runs", 0)):
            value = getattr(self, name)
            if value < least:
                raise ParameterError(f"{name}={value!r} is out of range: need {name} >= {least}")
        for name in ("param_std", "gamma", "init_c", "noise_std"):
            check_scale(name, getattr(self, name), zero_ok=name == "noise_std")
        if self.mode not in ("central", "distributed", "both"):
            raise ParameterError(f"unknown mode {self.mode!r}")


def random_system(config: ExperimentConfig) -> MisoSystem:
    """Draw module orders uniformly and coefficients from N(0, param_std^2)."""
    rng = np.random.default_rng([config.seed, _STREAM_SYSTEM])
    lo, hi = config.order_range
    orders = rng.integers(lo, hi + 1, size=config.m)
    modules = tuple(
        FirModule(rng.normal(0.0, config.param_std, size=int(ni))) for ni in orders
    )
    return MisoSystem(modules)


def generate_signals(system: MisoSystem, config: ExperimentConfig):
    """i.i.d. unit-variance Gaussian inputs per channel and white Gaussian output noise."""
    n_samples = config.samples
    if int(n_samples) * system.m * 8 > np.iinfo(np.intp).max:
        raise ParameterError(
            f"samples={n_samples} is out of range: {system.m} input channels of "
            "float64 samples exceed the largest array numpy can address"
        )
    rng_u = np.random.default_rng([config.seed, _STREAM_INPUTS])
    inputs = rng_u.normal(0.0, 1.0, size=(n_samples, system.m))
    # at noise_std = 0 every draw is exactly +0.0
    rng_v = np.random.default_rng([config.seed, _STREAM_NOISE])
    return inputs, rng_v.normal(0.0, config.noise_std, size=n_samples)


def build_regressors(system: MisoSystem, inputs) -> np.ndarray:
    """Stacked regressor rows phi(t) for t = 0..N-1 with zero pre-windows."""
    inputs = np.asarray(inputs, dtype=float)
    n_samples = inputs.shape[0]
    if n_samples and inputs.shape[1] != system.m:
        raise DimensionError(
            f"inputs have {inputs.shape[1]} channels, system has {system.m}"
        )
    phis = np.zeros((n_samples, system.n))
    col = 0
    for i, ni in enumerate(system.orders):
        for lag in range(min(ni, n_samples)):
            phis[lag:, col + lag] = inputs[: n_samples - lag, i]
        col += ni
    return phis


def outputs_from_regressors(system: MisoSystem, phis, noise) -> np.ndarray:
    return phis @ system.theta_true() + np.asarray(noise, dtype=float)


def draw(system: MisoSystem, config: ExperimentConfig):
    """The one draw every estimator of a run consumes: the (N, n)
    regressors and the (N,) outputs of config's signals."""
    inputs, noise = generate_signals(system, config)
    phis = build_regressors(system, inputs)
    return phis, outputs_from_regressors(system, phis, noise)


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one estimator run (row k = state after sample k)."""

    mode: str
    errors: np.ndarray  # (N, n) per-parameter errors
    eps: np.ndarray  # (N,)
    alpha: np.ndarray  # (N,)
    err_norm_sq: np.ndarray  # (N,) row sums of errors**2
    monitor: MonitorReport | None = None

    @property
    def samples(self) -> int:
        return self.errors.shape[0]

    def final_err_norm_sq(self) -> float:
        if self.samples == 0:
            raise ParameterError("empty trajectory has no final error")
        return float(self.err_norm_sq[-1])


def run_estimator(mode, system: MisoSystem, phis, ys, config: ExperimentConfig,
                  monitor: bool = False):
    """Run mode's kernel over regressors phis (N, n) and outputs ys.

    Central RLS is the distributed recursion's one-block case: one node
    holding all n parameters with information weight 1/gamma^2.  The layout
    chosen here drives the kernel and the Lyapunov monitor alike; each mode
    keeps its own float path to gamma^2.  ys (N,) gives the run's
    Trajectory, ys (R, N) the (R, n) final estimates of R realizations.

    The kernels reject non-finite estimates, so only the squared error can
    overflow; that raises NumericError naming the first such step, before
    the Lyapunov monitor reads the same history.
    """
    head = (phis, ys, np.zeros(system.n), config.init_c)
    if mode == "central":
        weight = 1.0 / config.gamma**2
        offsets, weights = np.array([0, system.n]), np.array([weight])
        run = kernels.central_trajectory(*head, config.noise_std**2, weight)
    else:
        offsets, gammas = block_offsets(system.orders), np.full(system.m, float(config.gamma))
        weights = 1.0 / gammas**2
        run = kernels.distributed_trajectory(*head, offsets, gammas, config.noise_std**2)
    theta_hist, eps, alpha, gains = run
    if np.ndim(ys) == 2:
        return theta_hist
    errors = np.vstack([np.zeros(system.n), theta_hist])
    errors -= system.theta_true()
    with np.errstate(over="ignore"):
        err_norm_sq = np.sum(errors[1:]**2, axis=1)
    bad = ~np.isfinite(err_norm_sq)
    if bad.any():
        raise NumericError(
            f"{mode} run: the squared estimation error overflows at step {int(np.argmax(bad))}"
        )
    report = None
    if monitor:
        from .lyapunov import check_trajectory

        report = check_trajectory(mode, errors, phis, alpha, config.noise_std**2, config.init_c,
                                  weights, offsets, gains)
    return Trajectory(mode, errors[1:], eps, alpha, err_norm_sq, report)


def run_central(system: MisoSystem, inputs, noise, config: ExperimentConfig,
                monitor: bool = False) -> Trajectory:
    """Central gamma-driven recursive LSE over the given signals."""
    phis = build_regressors(system, inputs)
    return run_estimator("central", system, phis, outputs_from_regressors(system, phis, noise),
                         config, monitor)


def run_distributed(system: MisoSystem, inputs, noise, config: ExperimentConfig,
                    monitor: bool = False) -> Trajectory:
    """Distributed fusion-center estimator over the given signals."""
    phis = build_regressors(system, inputs)
    return run_estimator("distributed", system, phis,
                         outputs_from_regressors(system, phis, noise), config, monitor)


@dataclass(frozen=True)
class ExperimentResult:
    central: Trajectory | None = None
    distributed: Trajectory | None = None


def run_experiment(config: ExperimentConfig, system: MisoSystem | None = None,
                   monitor: bool = False) -> ExperimentResult:
    """Generate (or accept) a system, then run the configured estimators
    on one draw of signals, regressors and outputs."""
    if system is None:
        system = random_system(config)
    phis, ys = draw(system, config)
    return ExperimentResult(**{mode: run_estimator(mode, system, phis, ys, config, monitor)
                               for mode in config.modes})


def monte_carlo_distributed(system: MisoSystem, config: ExperimentConfig) -> np.ndarray:
    """Final distributed estimates over repeated noise draws, fixed inputs.

    The gain sequence depends on the regressors only, so one kernel call
    computes it once and carries every realization through the estimates.
    """
    inputs, _ = generate_signals(system, config)
    phis = build_regressors(system, inputs)
    clean = phis @ system.theta_true()
    ys = np.empty((config.monte_carlo_runs, config.samples))
    for r in range(config.monte_carlo_runs):
        rng = np.random.default_rng([config.seed, _STREAM_MC_NOISE, r])
        ys[r] = clean + rng.normal(0.0, config.noise_std, size=config.samples)
    return run_estimator("distributed", system, phis, ys, config)


def write_trajectory_csv(trajectory: Trajectory, path):
    """Header then one row per step, as csvcolumns.write_csv_rows writes it."""
    from .csvcolumns import write_csv_rows

    n = trajectory.errors.shape[1]
    header = ["k", "err_norm_sq"] + [f"err_{j + 1}" for j in range(n)] + ["eps", "alpha"]
    columns = [np.arange(trajectory.samples), trajectory.err_norm_sq, trajectory.errors,
               trajectory.eps, trajectory.alpha]
    if trajectory.monitor is not None:
        monitor = trajectory.monitor.columns()
        header += list(monitor)
        columns += monitor.values()
    write_csv_rows(path, header, columns)


def read_trajectory_csv(path, names=None) -> dict[str, np.ndarray]:
    """csvcolumns.read_columns(path, names), each column a float array."""
    from .csvcolumns import read_columns

    return {name: np.array(column, dtype=float)
            for name, column in read_columns(path, names).items()}

