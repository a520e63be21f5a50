"""Experiment harness: random systems, signals, side-by-side runs, CSV.

All randomness flows through seeded numpy PCG64 generators with fixed
stream labels, so a (config, seed) pair fully determines the system, the
signals and every trajectory.  The central and distributed estimators in
one experiment always consume the identical signal realization.

An estimator runs as one pipeline over chunks of steps: each chunk's
regressors and outputs go through the kernel recursion, then become the
chunk's errors, squared error norms and, when monitored, its Lyapunov
records, all carried from chunk to chunk by their own state.
run_estimator passes a whole draw through it as one chunk, and Stream
draws and estimates STREAM_CHUNK steps at a time for the CLI, whose
writers append each chunk to its CSV, so a streamed run's memory does not
grow with N; a Stream ends early once the stop flag it is built with is set.
Chunks hold a multiple of the kernels' and the monitor's 16 steps, so
both give the same bytes.  Monte Carlo calls the distributed kernel
itself, on R outputs at once.  The kernels, the Lyapunov monitor and the
CSV module are imported by the calls that use them, so drawing signals
loads none of them, and a run that neither monitors nor writes a file
loads neither of the last two.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

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


def _check_samples(system: MisoSystem, n_samples: int):
    if int(n_samples) * system.m * 8 > np.iinfo(np.intp).max:
        raise ParameterError(
            f"samples={n_samples} is out of range: {system.m} input channels of "
            "float64 samples exceed the largest array numpy can address"
        )


def _generators(config: ExperimentConfig):
    """The generators of config's inputs and output noise."""
    return (np.random.default_rng([config.seed, _STREAM_INPUTS]),
            np.random.default_rng([config.seed, _STREAM_NOISE]))


def generate_signals(system: MisoSystem, config: ExperimentConfig):
    """i.i.d. unit-variance Gaussian inputs per channel and white Gaussian output noise."""
    n_samples = config.samples
    _check_samples(system, n_samples)
    rng_u, rng_v = _generators(config)
    inputs = rng_u.normal(0.0, 1.0, size=(n_samples, system.m))
    # at noise_std = 0 every draw is exactly +0.0
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
    """phis @ theta_true + noise, each row's product summed on its own.

    np.einsum without optimize calls no BLAS: it sums each row's n
    products in a loop of its own.  So on C-ordered rows, as
    build_regressors makes them, a row's bits depend neither on the BLAS
    thread count nor on which rows share the call, and a streamed run may
    chunk its rows anywhere.  (A matrix product rounds a row otherwise
    with the rows around it and the threads that split them.)
    """
    return np.einsum("ij,j->i", phis, system.theta_true()) + np.asarray(noise, dtype=float)


def draw(system: MisoSystem, config: ExperimentConfig):
    """The one draw every estimator of a run consumes: the (N, n)
    regressors and the (N,) outputs of config's signals."""
    inputs, noise = generate_signals(system, config)
    phis = build_regressors(system, inputs)
    return phis, outputs_from_regressors(system, phis, noise)


#: steps per chunk of a streamed run: a multiple of the 16 steps of
#: kernels.CHUNK and lyapunov.CHUNK, so that a run's bytes do not depend on it
STREAM_CHUNK = 512


def _drawn(system: MisoSystem, config: ExperimentConfig, generators):
    """draw(system, config) STREAM_CHUNK rows at a time, as (phis, ys) chunks,
    from the unused _generators(config).

    numpy's generators give the same values drawn in row chunks as drawn at
    once, each chunk's regressors read the p - 1 input rows before it, and
    a row's output does not depend on the rows drawn with it.  A run of no
    samples is one empty chunk.  The whole (N, m) input array is allocated
    once and never touched, so that a count memory could not hold ends at
    once in MemoryError, as the whole-array draw does.
    """
    _check_samples(system, config.samples)
    np.empty((config.samples, system.m))
    rng_u, rng_v = generators
    # the last p - 1 input rows; the rows of a window that starts with them
    # are the chunk's, once the first p - 1, whose pre-window is zero, go
    past = np.zeros((max(system.orders) - 1, system.m))
    start = 0
    while True:
        rows = min(STREAM_CHUNK, config.samples - start)
        window = np.concatenate([past, rng_u.normal(0.0, 1.0, size=(rows, system.m))])
        phis = build_regressors(system, window)[len(past):]
        past = window[rows:]
        yield phis, outputs_from_regressors(system, phis,
                                            rng_v.normal(0.0, config.noise_std, size=rows))
        start += rows
        if start >= config.samples:
            return


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one estimator run, or of a chunk of its steps
    (row k = state after sample k)."""

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


def _layout(mode, system: MisoSystem, config: ExperimentConfig):
    """The arguments of mode's kernel (kernels.central or kernels.distributed)
    from theta = 0, and the run's block offsets and weights.

    Central RLS is the distributed recursion's one-block case: one node
    holding all n parameters with information weight 1/gamma^2.  The layout
    chosen here drives the kernel and the Lyapunov monitor alike; each mode
    keeps its own float path to gamma^2.
    """
    head = (np.zeros(system.n), config.init_c)
    if mode == "central":
        weight = 1.0 / config.gamma**2
        return (*head, config.noise_std**2, weight), np.array([0, system.n]), np.array([weight])
    offsets, gammas = block_offsets(system.orders), np.full(system.m, float(config.gamma))
    return (*head, offsets, gammas, config.noise_std**2), offsets, 1.0 / gammas**2


def _estimates(mode, system: MisoSystem, chunks, config: ExperimentConfig, monitor: bool):
    """The Trajectory of each (phis, ys) chunk of one run, in order.

    The kernels reject non-finite estimates, so only the squared error can
    overflow; that raises NumericError naming the first such step, before
    the Lyapunov monitor reads the same errors.  A run stops at the first
    chunk that fails, the kernel's failure first, then the squared
    error's, then the monitor's.
    """
    from . import kernels

    args, offsets, weights = _layout(mode, system, config)
    recursion = getattr(kernels, mode)(*args)
    watch = None
    if monitor:
        from .lyapunov import Monitor

        watch = Monitor(mode, config.noise_std**2, config.init_c, weights, offsets)
    theta_true = system.theta_true()
    last, start = np.zeros(system.n) - theta_true, 0  # the error at state 0
    for phis, ys in chunks:
        history, eps, alpha, gains = recursion.advance(phis, ys)
        # the errors at the states before and after each of the chunk's steps
        errors = np.empty((len(phis) + 1, system.n))
        errors[0] = last
        np.subtract(history, theta_true, out=errors[1:])
        with np.errstate(over="ignore"):
            err_norm_sq = np.sum(errors[1:]**2, axis=1)
        bad = ~np.isfinite(err_norm_sq)
        if bad.any():
            raise NumericError(f"{mode} run: the squared estimation error overflows at step "
                               f"{start + int(np.argmax(bad))}")
        report = watch and watch.advance(errors, phis, alpha, gains)
        yield Trajectory(mode, errors[1:], eps, alpha, err_norm_sq, report)
        last, start = errors[-1], start + len(phis)


def run_estimator(mode, system: MisoSystem, phis, ys, config: ExperimentConfig,
                  monitor: bool = False) -> Trajectory:
    """Run mode's kernel over regressors phis (N, n) and outputs ys (N,), as
    one chunk: the run's Trajectory, with its monitor report when monitor
    is set."""
    (trajectory,) = _estimates(mode, system, [(phis, ys)], config, monitor)
    return trajectory


class Stream:
    """One estimator's run on config's draw, drawn and estimated STREAM_CHUNK
    steps at a time, so that it holds no array whose size grows with N.

    Iterating it runs the estimator once: it yields the run's consecutive
    Trajectory chunks, and reads the flag stop[0], which another process
    may set, after each chunk is estimated: once it is set, the stream
    ends there, without the chunk, so that a stopped writer formats no
    more rows.  Its
    generators are made with it, so that a process that makes its streams
    and then forks loads numpy's generators once (about 10-18 ms).  After
    each chunk, last is the chunk, and violations and orthogonal_steps
    count the monitor's flags.  Every chunk has the bytes of the same rows
    of run_estimator on draw(system, config).
    """

    def __init__(self, mode, system: MisoSystem, config: ExperimentConfig, monitor: bool, stop):
        self.mode, self.system, self.config = mode, system, config
        self.monitor, self.stop = monitor, stop
        self.violations = self.orthogonal_steps = 0
        self.last, self.generators = None, _generators(config)

    def __iter__(self):
        chunks = _drawn(self.system, self.config, self.generators)
        for chunk in _estimates(self.mode, self.system, chunks, self.config, self.monitor):
            self.last = chunk
            if chunk.monitor is not None:
                self.violations += len(chunk.monitor.violations)
                self.orthogonal_steps += len(chunk.monitor.orthogonal_steps)
            if self.stop[0]:
                return
            yield chunk


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
    from . import kernels

    inputs, _ = generate_signals(system, config)
    phis = build_regressors(system, inputs)
    clean = outputs_from_regressors(system, phis, 0.0)  # adding 0.0 changes no sum below
    ys = np.empty((config.monte_carlo_runs, config.samples))
    for r in range(config.monte_carlo_runs):
        rng = np.random.default_rng([config.seed, _STREAM_MC_NOISE, r])
        ys[r] = clean + rng.normal(0.0, config.noise_std, size=config.samples)
    return kernels.distributed_trajectory(phis, ys, *_layout("distributed", system, config)[0])[0]


def write_trajectory_csv(trajectory, path):
    """k, err_norm_sq, the errors, eps and alpha, then any monitor columns,
    one row per step, by csvcolumns.write_steps.

    trajectory is a Trajectory, or a Stream whose chunks are written as
    they come.
    """
    from .csvcolumns import write_steps

    if isinstance(trajectory, Trajectory):
        chunks, n = [trajectory], trajectory.errors.shape[1]
    else:
        chunks, n = trajectory, trajectory.system.n
    header = ["err_norm_sq", *(f"err_{j + 1}" for j in range(n)), "eps", "alpha"]
    if trajectory.monitor:
        from .lyapunov import MONITOR_COLUMNS

        header += [head for head, _ in MONITOR_COLUMNS]
    write_steps(path, header, ([c.err_norm_sq, c.errors, c.eps, c.alpha,
                                *(c.monitor.columns().values() if c.monitor else ())]
                               for c in chunks))


def read_trajectory_csv(path, names=None) -> dict[str, np.ndarray]:
    """csvcolumns.read_columns(path, names), each column a float array."""
    from .csvcolumns import read_columns

    return {name: np.array(column, dtype=float)
            for name, column in read_columns(path, names).items()}

