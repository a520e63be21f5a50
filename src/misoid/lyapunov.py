"""Lyapunov monitor: decrease checks for the estimation error dynamics.

The monitor is an oracle-mode verification instrument: it needs the true
parameter vector, evaluates the quadratic Lyapunov function along the
estimates a trajectory kernel produced, compares the direct one-step
difference against the closed-form decrease expressions, and checks the
gamma-largeness sufficiency bound for the distributed scheme.  It is a
post-pass: the gain sequence of both recursions depends on the regressors
only, so the kernel's alphas and per-block gain scalars are all it needs
besides the estimates.  The single-step functions below, written on the
gain matrices, are the reference forms the post-pass is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

#: decrease violations beyond this are flagged
VIOLATION_TOL = 1e-12
#: scale-invariant threshold for the orthogonal degenerate case
ORTHOGONAL_TOL = 1e-12
#: denominators below this make the gamma bound vacuous
DEGENERATE_DENOM_TOL = 1e-14


def w_quadratic(theta_err, info_mat) -> float:
    """Quadratic Lyapunov value err' * info * err."""
    err = np.asarray(theta_err, dtype=float)
    info = np.asarray(info_mat, dtype=float)
    if info.shape != (err.size, err.size):
        raise DimensionError(
            f"info matrix shape {info.shape} does not match error length {err.size}"
        )
    return float(err @ info @ err)


def delta_w_central_closed(theta_err, phi, sigma_mat, sigma: float) -> float:
    """Closed-form one-step decrease of the central Lyapunov function.

    Valid along the sigma-driven recursion: -(err'phi)^2 / (sigma^2 + phi'S phi).
    """
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    err = np.asarray(theta_err, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = float(phi @ np.asarray(sigma_mat, dtype=float) @ phi)
    return -float(err @ phi) ** 2 / (sigma**2 + s)


def delta_w_central_general(theta_err, phi, sigma_mat, noise_var: float, info_weight: float) -> float:
    """Closed-form decrease for an information recursion with arbitrary weight.

    With weight 1/sigma^2 this reduces to delta_w_central_closed; with
    1/gamma^2 it covers the gamma-driven central recursion.
    """
    err = np.asarray(theta_err, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = float(phi @ np.asarray(sigma_mat, dtype=float) @ phi)
    alpha = 1.0 / (noise_var + s)
    proj = float(err @ phi)
    return proj**2 * (-alpha * (2.0 - alpha * s) + info_weight * (1.0 - alpha * s) ** 2)


def overline_delta_w_b(theta_err_b, phi, sigma_b, alpha_b: float) -> float:
    """Gain-matrix-frozen part of the distributed one-step difference.

    Factored form -alpha (err'phi)^2 (2 - alpha phi'S_B phi); negative
    whenever err'phi != 0 and 0 < alpha < 2/(phi'S_B phi).
    """
    err = np.asarray(theta_err_b, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = float(phi @ np.asarray(sigma_b, dtype=float) @ phi)
    return -alpha_b * float(err @ phi) ** 2 * (2.0 - alpha_b * s)


def gamma_sufficiency_bound(theta_err_b, f_matrix, phi_blocks, overline_dw: float):
    """Required upper bound on sum(1/gamma_i^2) for guaranteed decrease.

    Returns |overline_dw| / (err' F' phi_B F err), or None when the
    denominator is degenerate (bound vacuous: any gammas satisfy it).
    """
    err = np.asarray(theta_err_b, dtype=float)
    f_mat = np.asarray(f_matrix, dtype=float)
    phi_b = np.asarray(phi_blocks, dtype=float)
    err_next = f_mat @ err
    denom = float(err_next @ phi_b @ err_next)
    if denom <= DEGENERATE_DENOM_TOL:
        return None
    return abs(overline_dw) / denom


def is_orthogonal(phi, theta_err) -> bool:
    """Scale-invariant check for the degenerate phi'err ~ 0 case."""
    phi = np.asarray(phi, dtype=float)
    err = np.asarray(theta_err, dtype=float)
    scale = np.linalg.norm(phi) * np.linalg.norm(err)
    return abs(float(phi @ err)) <= ORTHOGONAL_TOL * scale


@dataclass(frozen=True)
class LyapRecord:
    """Per-step monitor record for the transition k -> k+1."""

    k: int
    w: float
    delta_w: float
    delta_w_closed: float | None = None  # central mode
    overline_delta_w: float | None = None  # distributed mode
    gamma_bound: float | None = None  # None = not applicable or degenerate
    gamma_bound_degenerate: bool = False
    gamma_sum: float | None = None
    orthogonal_flag: bool = False
    violation_flag: bool = False


@dataclass(frozen=True)
class RunTrace:
    """Estimates 0..N of one run and what drove each transition.

    Block i spans offsets[i]:offsets[i+1] and adds weights[i] * phi_i phi_i'
    to the information matrix at every step; the central recursion is the
    one-block case with weight 1/gamma^2.  gains holds the per-block gain
    scalars phi_i' Sigma_i phi_i of every step and is needed in distributed
    mode only.
    """

    theta_true: np.ndarray  # (n,)
    thetas: np.ndarray  # (N+1, n)
    phis: np.ndarray  # (N, n)
    alphas: np.ndarray  # (N,)
    noise_var: float
    info0: np.ndarray  # (n, n) information matrix of state 0
    weights: np.ndarray  # (m,)
    offsets: np.ndarray  # (m+1,)
    gains: np.ndarray | None = None  # (N, m)


@dataclass(frozen=True)
class MonitorReport:
    mode: str
    records: list[LyapRecord] = field(default_factory=list)

    @property
    def violations(self) -> list[int]:
        return [r.k for r in self.records if r.violation_flag]

    @property
    def orthogonal_steps(self) -> list[int]:
        return [r.k for r in self.records if r.orthogonal_flag]

    @property
    def gamma_implication_ok(self) -> bool:
        """Every step where the bound certifies decrease indeed decreased."""
        return all(
            r.delta_w < 0
            for r in self.records
            if r.gamma_bound is not None and r.gamma_sum is not None and r.gamma_sum < r.gamma_bound
        )


def check_trajectory(trace: RunTrace, mode: str) -> MonitorReport:
    """Evaluate per-step Lyapunov records along a recorded noise-free run.

    No gain matrix is needed: since alpha phi'Sigma phi = 1 - alpha sigma^2,
    every closed form follows from alpha, phi, the error and the per-block
    gain scalars, and W from the running information matrix.
    """
    if mode not in ("central", "distributed"):
        raise ParameterError(f"unknown monitor mode {mode!r}")
    n_steps = trace.phis.shape[0]
    if n_steps < 1:
        raise ParameterError("trace must contain at least two states")
    errs = trace.thetas - trace.theta_true
    sizes = np.diff(trace.offsets)
    block_of = np.repeat(np.arange(sizes.size), sizes)
    # blockdiag(w_i 1 1'): one step adds weight_mat * phi phi' to the information
    weight_mat = np.where(block_of[:, None] == block_of, trace.weights[block_of][:, None], 0.0)
    info = np.array(trace.info0, dtype=float)
    weight_sum = float(np.sum(trace.weights))  # sum of 1/gamma_i^2, the central weight
    w_next = w_quadratic(errs[0], info)
    records = []
    for k in range(n_steps):
        err, phi, alpha = errs[k], trace.phis[k], float(trace.alphas[k])
        info += weight_mat * np.outer(phi, phi)
        w, w_next = w_next, w_quadratic(errs[k + 1], info)
        dw = w_next - w
        proj = float(err @ phi)
        a_sig = alpha * trace.noise_var  # = 1 - alpha phi'Sigma phi
        common = dict(
            k=k,
            w=w,
            delta_w=dw,
            orthogonal_flag=is_orthogonal(phi, err),
            violation_flag=dw > VIOLATION_TOL,
        )
        if mode == "central":
            closed = proj**2 * (-alpha * (1.0 + a_sig) + weight_sum * a_sig**2)
            records.append(LyapRecord(delta_w_closed=closed, **common))
            continue
        odw = -alpha * proj**2 * (1.0 + a_sig)
        bound = None
        if odw < 0:
            # err'F' Phi_B F err with F = I - alpha Sigma_B phi phi', block by block
            p_blocks = np.add.reduceat(err * phi, trace.offsets[:-1])
            denom = float(np.sum((p_blocks - alpha * proj * trace.gains[k]) ** 2))
            if denom > DEGENERATE_DENOM_TOL:
                bound = abs(odw) / denom
        records.append(
            LyapRecord(
                overline_delta_w=odw,
                gamma_bound=bound,
                gamma_bound_degenerate=odw < 0 and bound is None,
                gamma_sum=weight_sum,
                **common,
            )
        )
    return MonitorReport(mode=mode, records=records)


def monitor_columns(mode: str) -> list[str]:
    if mode == "central":
        return ["W", "deltaW", "deltaW_closed", "orthogonal_flag", "violation_flag"]
    return [
        "W",
        "deltaW",
        "overline_dW",
        "gamma_bound",
        "gamma_sum",
        "orthogonal_flag",
        "violation_flag",
    ]


def monitor_row(record: LyapRecord, mode: str) -> list[str]:
    def num(x):
        if x is None:
            return "inf"  # degenerate/vacuous bound
        return format(float(x), ".17g")

    if mode == "central":
        return [
            num(record.w),
            num(record.delta_w),
            num(record.delta_w_closed),
            str(int(record.orthogonal_flag)),
            str(int(record.violation_flag)),
        ]
    return [
        num(record.w),
        num(record.delta_w),
        num(record.overline_delta_w),
        num(record.gamma_bound),
        num(record.gamma_sum),
        str(int(record.orthogonal_flag)),
        str(int(record.violation_flag)),
    ]


def write_monitor_csv(report: MonitorReport, path):
    header = ["k"] + monitor_columns(report.mode)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for rec in report.records:
            fh.write(",".join([str(rec.k)] + monitor_row(rec, report.mode)) + "\n")
