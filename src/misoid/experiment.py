"""Experiment harness: random systems, signals, side-by-side runs, CSV.

All randomness flows through seeded numpy PCG64 generators with fixed
stream labels, so a (config, seed) pair fully determines the system, the
signals and every trajectory.  The central and distributed estimators in
one experiment always consume the identical signal realization.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import DimensionError, NumericError, ParameterError
from .fir import FirModule, MisoSystem
from .lyapunov import MonitorReport, RunTrace, check_trajectory, write_csv_rows

# stream labels for the seeded sub-generators
_STREAM_SYSTEM = 0
_STREAM_INPUTS = 1
_STREAM_NOISE = 2
_STREAM_MC_NOISE = 3


def _check_scale(name: str, value: float, zero_ok: bool = False):
    """Reject NaN, infinities, negatives and values whose square is 0 or inf.

    gamma^2 and sigma^2 enter the recursions, and c and its reciprocal are
    the initial gain and information, so each scale keeps its square a
    positive finite float; only noise_std may be exactly 0.
    """
    if not ((zero_ok and value == 0) or (value > 0 and 0 < value * value < math.inf)):
        rel = ">= 0" if zero_ok else "> 0"
        raise ParameterError(
            f"{name}={value!r} is out of range: need {name} {rel} and, "
            f"unless it is 0, 0 < {name}^2 < inf"
        )


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

    def __post_init__(self):
        lo, hi = self.order_range
        if not (1 <= lo <= hi <= 64):
            raise ParameterError("order_range must satisfy 1 <= lo <= hi <= 64")
        if self.m < 1:
            raise ParameterError("m must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        for name in ("param_std", "gamma", "init_c", "noise_std"):
            _check_scale(name, getattr(self, name), zero_ok=name == "noise_std")
        if self.samples < 0 or self.monte_carlo_runs < 0:
            raise ParameterError("samples and monte_carlo_runs must be >= 0")
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
    return MisoSystem(modules, noise_std=config.noise_std)


def generate_signals(system: MisoSystem, config: ExperimentConfig):
    """i.i.d. unit-variance Gaussian inputs per channel and white Gaussian output noise."""
    n_samples = config.samples
    rng_u = np.random.default_rng([config.seed, _STREAM_INPUTS])
    inputs = rng_u.normal(0.0, 1.0, size=(n_samples, system.m))
    if config.noise_std > 0:
        rng_v = np.random.default_rng([config.seed, _STREAM_NOISE])
        noise = rng_v.normal(0.0, config.noise_std, size=n_samples)
    else:
        noise = np.zeros(n_samples)
    return inputs, noise


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


def block_offsets(system: MisoSystem) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(system.orders)]).astype(np.int64)


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one estimator run (row k = state after sample k)."""

    mode: str
    errors: np.ndarray  # (N, n) per-parameter errors
    eps: np.ndarray  # (N,)
    alpha: np.ndarray  # (N,)
    monitor: MonitorReport | None = None

    @property
    def samples(self) -> int:
        return self.errors.shape[0]

    @property
    def err_norm_sq(self) -> np.ndarray:
        return np.sum(self.errors**2, axis=1)

    def final_err_norm_sq(self) -> float:
        if self.samples == 0:
            raise ParameterError("empty trajectory has no final error")
        return float(self.err_norm_sq[-1])


def _record(mode, system, config, phis, theta_hist, eps, alpha, monitor,
            weights, offsets, gains=None) -> Trajectory:
    """The run's record, built from its error history e_0..e_N.

    The kernels reject non-finite estimates, so only the squared error can
    overflow; that raises NumericError naming the first such step, before
    the Lyapunov monitor reads the same history.
    """
    errors = np.vstack([np.zeros(system.n), theta_hist])
    errors -= system.theta_true()
    traj = Trajectory(mode=mode, errors=errors[1:], eps=eps, alpha=alpha)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(traj.err_norm_sq)
    if bad.any():
        raise NumericError(
            f"{mode} run: the squared estimation error overflows at step {int(np.argmax(bad))}"
        )
    if not (monitor and config.samples):
        return traj
    trace = RunTrace(errors=errors, phis=phis, alphas=alpha, noise_var=config.noise_std**2,
                     info0=np.eye(system.n) / config.init_c, weights=weights,
                     offsets=offsets, gains=gains)
    return replace(traj, monitor=check_trajectory(trace, mode))


def run_central(system: MisoSystem, inputs, noise, config: ExperimentConfig,
                monitor: bool = False) -> Trajectory:
    """Central recursive LSE over the given signals.

    Uses the gamma-driven information recursion (the comparison variant)
    through the trajectory kernel; monitoring adds the Lyapunov records
    computed from the kernel's estimates and gains.
    """
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, noise)
    weight = 1.0 / config.gamma**2
    theta_hist, eps, alpha = kernels.central_trajectory(
        phis, ys, np.zeros(system.n), config.init_c * np.eye(system.n),
        config.noise_std**2, weight,
    )
    return _record("central", system, config, phis, theta_hist, eps, alpha, monitor,
                   np.array([weight]), np.array([0, system.n]))


def run_distributed(system: MisoSystem, inputs, noise, config: ExperimentConfig,
                    monitor: bool = False) -> Trajectory:
    """Distributed fusion-center estimator over the given signals.

    Runs the fused recursion through the trajectory kernel; monitoring adds
    the Lyapunov records computed from its estimates and gain scalars.
    """
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, noise)
    offsets = block_offsets(system)
    gammas = np.full(system.m, float(config.gamma))
    theta_hist, eps, alpha, gains = kernels.distributed_trajectory(
        phis, ys, np.zeros(system.n), config.init_c * np.eye(system.n),
        offsets, gammas, config.noise_std**2,
    )
    return _record("distributed", system, config, phis, theta_hist, eps, alpha, monitor,
                   1.0 / gammas**2, offsets, gains)


@dataclass(frozen=True)
class ExperimentResult:
    central: Trajectory | None = None
    distributed: Trajectory | None = None


def run_experiment(config: ExperimentConfig, system: MisoSystem | None = None,
                   monitor: bool = False) -> ExperimentResult:
    """Generate (or accept) a system, then run the configured estimators."""
    if system is None:
        system = random_system(config)
    inputs, noise = generate_signals(system, config)
    central_traj = None
    dist_traj = None
    if config.mode in ("central", "both"):
        central_traj = run_central(system, inputs, noise, config, monitor=monitor)
    if config.mode in ("distributed", "both"):
        dist_traj = run_distributed(system, inputs, noise, config, monitor=monitor)
    return ExperimentResult(central=central_traj, distributed=dist_traj)


def monte_carlo_distributed(system: MisoSystem, config: ExperimentConfig) -> np.ndarray:
    """Final distributed estimates over repeated noise draws, fixed inputs.

    The gain sequence depends on the regressors only, so one kernel call
    runs it once and carries every realization through the estimate pass.
    """
    inputs, _ = generate_signals(system, config)
    phis = build_regressors(system, inputs)
    clean = phis @ system.theta_true()
    ys = np.empty((config.monte_carlo_runs, config.samples))
    for r in range(config.monte_carlo_runs):
        rng = np.random.default_rng([config.seed, _STREAM_MC_NOISE, r])
        ys[r] = clean + rng.normal(0.0, config.noise_std, size=config.samples)
    finals, _, _, _ = kernels.distributed_trajectory(
        phis, ys, np.zeros(system.n), config.init_c * np.eye(system.n),
        block_offsets(system), np.full(system.m, float(config.gamma)), config.noise_std**2,
    )
    return finals


def write_trajectory_csv(trajectory: Trajectory, path):
    """Header then one row per step, 17 significant digits per value."""
    n = trajectory.errors.shape[1]
    header = ["k", "err_norm_sq"] + [f"err_{j + 1}" for j in range(n)] + ["eps", "alpha"]
    columns = [np.arange(trajectory.samples), trajectory.err_norm_sq, trajectory.errors,
               trajectory.eps, trajectory.alpha]
    if trajectory.monitor is not None:
        monitor = trajectory.monitor.columns()
        header += list(monitor)
        columns += monitor.values()
    write_csv_rows(path, header, columns)


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into named float columns."""
    try:
        with open(path) as fh:
            names = fh.readline().strip().split(",")
            if names == [""]:
                raise ParameterError(f"{path}: empty file")
            with warnings.catch_warnings():
                # a header-only file (a run without samples) has no data rows
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # undecodable bytes, a ragged row or a field that is not a number
        raise ParameterError(f"{path}: {exc}") from None
    if not data.size:
        return {name: np.empty(0) for name in names}
    if data.shape[1] != len(names):
        raise ParameterError(
            f"{path}: data rows have {data.shape[1]} fields, the header {len(names)}"
        )
    return {name: data[:, j] for j, name in enumerate(names)}


def first_crossing(values, threshold_frac: float, metric: str = "metric"):
    """First index where the metric drops to threshold_frac times its start.

    The crossing is defined only for a positive finite start; any other
    start raises ParameterError naming the metric.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return None
    if not 0 < values[0] < math.inf:
        raise ParameterError(
            f"{metric} starts at {float(values[0])!r}: "
            "a first crossing needs a positive finite start"
        )
    limit = threshold_frac * values[0]
    hits = np.nonzero(values <= limit)[0]
    return int(hits[0]) if hits.size else None
