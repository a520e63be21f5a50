"""Lyapunov monitor: decrease checks for the estimation error dynamics.

The monitor is an oracle-mode verification instrument: it needs the true
parameter vector, evaluates the quadratic Lyapunov function along the
estimation errors of a trajectory kernel's run, compares the direct one-step
difference against the closed-form decrease expressions, and checks the
gamma-largeness sufficiency bound for the distributed scheme.  It is a
post-pass: the gain sequence of both recursions depends on the regressors
only, so the kernel's alphas and per-block gain scalars are all it needs
besides the errors.  Only W keeps a loop over the steps, for its running
information matrix; every other column is one array expression over all
steps.  The report is a record array with one row per step, and a gamma
bound that does not apply or is degenerate is inf there and in the CSV.
The single-step functions below, written on the gain matrices, are the
reference forms the post-pass is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def gamma_sufficiency_bound(theta_err_b, f_matrix, phi_blocks, overline_dw: float) -> float:
    """Required upper bound on sum(1/gamma_i^2) for guaranteed decrease.

    Returns |overline_dw| / (err' F' phi_B F err), or inf when the
    denominator is degenerate (bound vacuous: any gammas satisfy it).
    """
    err = np.asarray(theta_err_b, dtype=float)
    f_mat = np.asarray(f_matrix, dtype=float)
    phi_b = np.asarray(phi_blocks, dtype=float)
    err_next = f_mat @ err
    denom = float(err_next @ phi_b @ err_next)
    if denom <= DEGENERATE_DENOM_TOL:
        return np.inf
    return abs(overline_dw) / denom


def is_orthogonal(phi, theta_err) -> bool:
    """Scale-invariant check for the degenerate phi'err ~ 0 case."""
    phi = np.asarray(phi, dtype=float)
    err = np.asarray(theta_err, dtype=float)
    scale = np.linalg.norm(phi) * np.linalg.norm(err)
    return abs(float(phi @ err)) <= ORTHOGONAL_TOL * scale


@dataclass(frozen=True)
class RunTrace:
    """Estimation errors 0..N of one run and what drove each transition.

    Block i spans offsets[i]:offsets[i+1] and adds weights[i] * phi_i phi_i'
    to the information matrix at every step; the central recursion is the
    one-block case with weight 1/gamma^2.  gains holds the per-block gain
    scalars phi_i' Sigma_i phi_i of every step and is needed in distributed
    mode only.
    """

    errors: np.ndarray  # (N+1, n) estimate minus true parameters
    phis: np.ndarray  # (N, n)
    alphas: np.ndarray  # (N,)
    noise_var: float
    info0: np.ndarray  # (n, n) information matrix of state 0
    weights: np.ndarray  # (m,)
    offsets: np.ndarray  # (m+1,)
    gains: np.ndarray | None = None  # (N, m)


#: per monitor mode, each CSV header paired with its record field
MONITOR_COLUMNS = {
    "central": (
        ("W", "w"),
        ("deltaW", "delta_w"),
        ("deltaW_closed", "delta_w_closed"),
        ("orthogonal_flag", "orthogonal_flag"),
        ("violation_flag", "violation_flag"),
    ),
    "distributed": (
        ("W", "w"),
        ("deltaW", "delta_w"),
        ("overline_dW", "overline_delta_w"),
        ("gamma_bound", "gamma_bound"),
        ("gamma_sum", "gamma_sum"),
        ("orthogonal_flag", "orthogonal_flag"),
        ("violation_flag", "violation_flag"),
    ),
}


@dataclass(frozen=True)
class MonitorReport:
    """Row k of records is the transition k -> k+1; fields as in MONITOR_COLUMNS."""

    mode: str
    records: np.recarray

    @property
    def violations(self) -> list[int]:
        return np.flatnonzero(self.records.violation_flag).tolist()

    @property
    def orthogonal_steps(self) -> list[int]:
        return np.flatnonzero(self.records.orthogonal_flag).tolist()

    @property
    def gamma_implication_ok(self) -> bool:
        """Every step where the bound certifies decrease indeed decreased."""
        if self.mode == "central":
            return True
        r = self.records
        certified = np.isfinite(r.gamma_bound) & (r.gamma_sum < r.gamma_bound)
        return bool(np.all(r.delta_w[certified] < 0))

    def columns(self) -> dict[str, np.ndarray]:
        """The monitor's CSV columns by header."""
        return {head: self.records[name] for head, name in MONITOR_COLUMNS[self.mode]}


def _rowdot(a, b) -> np.ndarray:
    """a[k] @ b[k] for every row k, bit for bit as the 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pow2(x) -> np.ndarray:
    """x**2 by libm pow, as the scalar x**2 of a Python float.

    numpy's x**2 is x*x, which differs from pow in the last bit on about
    one value in a thousand; pow keeps the bits of the single-step forms.
    """
    return np.float_power(x, 2)


def check_trajectory(trace: RunTrace, mode: str) -> MonitorReport:
    """Evaluate the per-step Lyapunov columns along a recorded noise-free run.

    No gain matrix is needed: since alpha phi'Sigma phi = 1 - alpha sigma^2,
    every closed form follows from alpha, phi, the error and the per-block
    gain scalars, and W from the running information matrix, the one loop.
    A gamma bound that does not apply or is degenerate is inf.
    """
    if mode not in MONITOR_COLUMNS:
        raise ParameterError(f"unknown monitor mode {mode!r}")
    n_steps = trace.phis.shape[0]
    if n_steps < 1:
        raise ParameterError("trace must contain at least two states")
    errs, phis, alphas = trace.errors, trace.phis, trace.alphas
    sizes = np.diff(trace.offsets)
    block_of = np.repeat(np.arange(sizes.size), sizes)
    # blockdiag(w_i 1 1'): one step adds weight_mat * phi phi' to the information
    weight_mat = np.where(block_of[:, None] == block_of, trace.weights[block_of][:, None], 0.0)
    info = np.array(trace.info0, dtype=float)
    buf = np.empty_like(info)
    w = np.empty(n_steps + 1)
    w[0] = w_quadratic(errs[0], info)
    for k in range(n_steps):
        np.multiply.outer(phis[k], phis[k], out=buf)
        buf *= weight_mat
        info += buf
        w[k + 1] = w_quadratic(errs[k + 1], info)
    errs = errs[:-1]
    proj = _rowdot(errs, phis)
    scale = np.sqrt(_rowdot(phis, phis)) * np.sqrt(_rowdot(errs, errs))
    a_sig = alphas * trace.noise_var  # = 1 - alpha phi'Sigma phi
    weight_sum = float(np.sum(trace.weights))  # sum of 1/gamma_i^2, the central weight
    cols = {
        "w": w[:-1],
        "delta_w": np.diff(w),
        "orthogonal_flag": np.abs(proj) <= ORTHOGONAL_TOL * scale,
    }
    cols["violation_flag"] = cols["delta_w"] > VIOLATION_TOL
    if mode == "central":
        cols["delta_w_closed"] = _pow2(proj) * (-alphas * (1.0 + a_sig) + weight_sum * _pow2(a_sig))
    else:
        odw = -alphas * _pow2(proj) * (1.0 + a_sig)
        # err'F' Phi_B F err with F = I - alpha Sigma_B phi phi', block by block
        p_blocks = np.add.reduceat(errs * phis, trace.offsets[:-1], axis=1)
        denom = np.sum((p_blocks - (alphas * proj)[:, None] * trace.gains) ** 2, axis=1)
        applies = (odw < 0) & (denom > DEGENERATE_DENOM_TOL)
        cols["overline_delta_w"] = odw
        cols["gamma_bound"] = np.divide(np.abs(odw), denom, out=np.full(n_steps, np.inf),
                                        where=applies)
        cols["gamma_sum"] = np.full(n_steps, weight_sum)
    names = [name for _, name in MONITOR_COLUMNS[mode]]
    return MonitorReport(mode, np.rec.fromarrays([cols[name] for name in names], names=names))


def write_csv_rows(path, header, columns):
    """Header then one ``%``-formatted row per step.

    columns are 1-D arrays or 2-D arrays of several columns, one row per
    step.  Integer and flag columns are written with ``%d``, floats with
    ``%.17g``, which is the same text as ``format(x, '.17g')``, inf, nan
    and -0 included.
    """
    row_fmt = ",".join(
        "%.17g" if col.dtype.kind == "f" else "%d"
        for col in columns for _ in range(math.prod(col.shape[1:]))
    ) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_fmt % tuple(row.tolist()) for row in np.column_stack(columns))


def write_monitor_csv(report: MonitorReport, path):
    cols = report.columns()
    write_csv_rows(path, ["k", *cols], [np.arange(len(report.records)), *cols.values()])
