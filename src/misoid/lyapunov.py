"""Lyapunov monitor: decrease checks for the estimation error dynamics.

The monitor is an oracle-mode verification instrument: it needs the true
parameter vector, evaluates the quadratic Lyapunov function along the
estimation errors of a trajectory kernel's run, compares the direct one-step
difference against the closed-form decrease expressions, and checks the
gamma-largeness sufficiency bound for the distributed scheme.  The central
gamma-driven RLS is that scheme's one-block case, so both runs get the
same columns from the same formulas.  It is a post-pass: the gain
sequence of both recursions depends on the regressors only, and a Monitor
takes the errors, regressors, alphas and per-block gain scalars of a run
a chunk of steps at a time, as a streamed run produces them;
check_trajectory takes a whole run of any length N >= 0 as one chunk.  W
runs CHUNK steps at a time on packed per-node information blocks, in the
kernels' layout but with a chunk length of its own, carried from chunk to
chunk with the last W; every other column is one array expression over a
chunk's steps.  The report is a record array with one row per step, and a
gamma bound that does not apply or is degenerate is inf there and in the
CSV; a W that is not finite is an error.  The single-step forms on the
gain matrices that the post-pass is tested against live with the tests;
w_quadratic and delta_w_central_closed stay here, since the benchmark and
the acceptance test use them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ParameterError
from .fir import packed_layout

#: steps per chunk of W's loop, apart from kernels.CHUNK: W's last bits depend on it
CHUNK = 16

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


#: each CSV header of the monitor paired with its record field
MONITOR_COLUMNS = (
    ("W", "w"),
    ("deltaW", "delta_w"),
    ("deltaW_closed", "delta_w_closed"),
    ("overline_dW", "overline_delta_w"),
    ("gamma_bound", "gamma_bound"),
    ("gamma_sum", "gamma_sum"),
    ("orthogonal_flag", "orthogonal_flag"),
    ("violation_flag", "violation_flag"),
)


@dataclass(frozen=True)
class MonitorReport:
    """Row k of records is the transition k -> k+1; fields as in MONITOR_COLUMNS."""

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
        r = self.records
        certified = np.isfinite(r.gamma_bound) & (r.gamma_sum < r.gamma_bound)
        return bool(np.all(r.delta_w[certified] < 0))

    def columns(self) -> dict[str, np.ndarray]:
        """The monitor's CSV columns by header."""
        return {head: self.records[name] for head, name in MONITOR_COLUMNS}


def _rowdot(a, b) -> np.ndarray:
    """a[k] @ b[k] for every row k, bit for bit as the 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pow2(x) -> np.ndarray:
    """x**2 by libm pow, as the scalar x**2 of a Python float.

    numpy's x**2 is x*x, which differs from pow in the last bit on about
    one value in a thousand; pow keeps the bits of the single-step forms.
    """
    return np.float_power(x, 2)


class Monitor:
    """The monitor along one run, advanced a chunk of steps at a time.

    It carries the packed per-node information blocks, the last W and the
    step count.  W runs in CHUNK-step pieces from each chunk's start, so
    chunks that hold a multiple of CHUNK steps, the last chunk aside, give
    the bytes of one chunk of all steps.  Block i spans offsets[i]:offsets[i+1]
    and adds weights[i] phi_i phi_i' to the information at every step, from
    I / init_c at state 0; central RLS is the one-block case with weight
    1/gamma^2.  mode only names the run in errors.
    """

    def __init__(self, mode: str, noise_var: float, init_c: float, weights, offsets):
        self.real, self.idx = packed_layout(offsets)
        self.info = np.eye(self.real.shape[1]) / init_c * np.ones((self.real.shape[0], 1, 1))
        self.mode, self.noise_var, self.init_c = mode, noise_var, init_c
        self.weights, self.offsets = weights, offsets
        self.w, self.steps = None, 0

    def advance(self, errors, phis, alphas, gains) -> MonitorReport:
        """The records of the next b steps.

        errors (b+1, n) are estimate minus truth at the states before and
        after each step, the first being the last state of the previous
        chunk; phis (b, n) and alphas (b,) drove the steps, and gains (b, m)
        holds each block's phi_i' Sigma_i phi_i.  A W that is not finite
        raises NumericError naming its first step, since no decrease check
        can read it.
        """
        n_steps = phis.shape[0]
        real, idx, info, weights = self.real, self.idx, self.info, self.weights
        w = np.empty(n_steps + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W is named below
            w[0] = errors[0] @ errors[0] / self.init_c if self.w is None else self.w
            for k in range(0, n_steps, CHUNK):
                # W_{k+j+1} = sum_i e_i' I_i e_i + w_i sum_{l<=j} (phi_{k+l,i}' e_i)^2
                # at e = e_{k+j+1}
                e = np.where(real, errors[k + 1:k + 1 + CHUNK, idx], 0.0).transpose(1, 0, 2)
                phi = np.where(real, phis[k:k + CHUNK, idx], 0.0).transpose(1, 0, 2)
                pe = np.triu(np.matmul(phi, e.transpose(0, 2, 1)))
                quad = ((np.matmul(e, info) * e).sum(axis=2)
                        + weights[:, None] * (pe * pe).sum(axis=1))
                w[k + 1:k + 1 + CHUNK] = quad.sum(axis=0)
                info += np.matmul(weights[:, None, None] * phi.transpose(0, 2, 1), phi)
        bad = ~np.isfinite(w)
        if bad.any():
            raise NumericError(f"{self.mode} monitor: the Lyapunov value W is not finite at "
                               f"step {self.steps + int(np.argmax(bad))}")
        self.w, self.steps = w[-1], self.steps + n_steps
        errs = errors[:-1]
        proj = _rowdot(errs, phis)
        scale = np.sqrt(_rowdot(phis, phis)) * np.sqrt(_rowdot(errs, errs))
        a_sig = alphas * self.noise_var  # = 1 - alpha phi'Sigma phi
        odw = -alphas * _pow2(proj) * (1.0 + a_sig)
        # (phi_i'(F err)_i)^2 with F = I - alpha Sigma_B phi phi', block by block
        resid = (np.add.reduceat(errs * phis, self.offsets[:-1], axis=1)
                 - (alphas * proj)[:, None] * gains) ** 2
        denom = resid.sum(axis=1)  # err'F' Phi_B F err
        delta_w = np.diff(w)
        cols = {
            "w": w[:-1],
            "delta_w": delta_w,
            "delta_w_closed": odw + (resid * weights).sum(axis=1),
            "overline_delta_w": odw,
            "gamma_bound": np.divide(np.abs(odw), denom, out=np.full(n_steps, np.inf),
                                     where=(odw < 0) & (denom > DEGENERATE_DENOM_TOL)),
            "gamma_sum": np.full(n_steps, float(np.sum(weights))),  # sum of 1/gamma_i^2
            "orthogonal_flag": np.abs(proj) <= ORTHOGONAL_TOL * scale,
            "violation_flag": delta_w > VIOLATION_TOL,
        }
        names = [name for _, name in MONITOR_COLUMNS]
        return MonitorReport(np.rec.fromarrays([cols[name] for name in names], names=names))


def check_trajectory(mode: str, errors, phis, alphas, noise_var: float, init_c: float,
                     weights, offsets, gains) -> MonitorReport:
    """Evaluate the per-step Lyapunov columns along a recorded run.

    errors (N+1, n) are estimate minus truth at states 0..N, and the other
    arguments are those of ``Monitor`` and ``Monitor.advance``: the report
    is one chunk of all N steps, and at N = 0 it has no rows.

    No gain matrix is needed: since alpha phi'Sigma phi = 1 - alpha sigma^2,
    every closed form follows from alpha, phi, the error and the per-block
    gain scalars, and W from packed per-node information blocks advanced per
    chunk.  The closed forms are those of the noise-free step.  A gamma
    bound that does not apply or is degenerate is inf.
    """
    return Monitor(mode, noise_var, init_c, weights, offsets).advance(errors, phis, alphas, gains)


def write_monitor_csv(reports, path):
    """k, then the monitor columns, one row per record of reports, the
    consecutive reports of a run's chunks, written as they come."""
    from .csvcolumns import write_steps

    write_steps(path, [head for head, _ in MONITOR_COLUMNS],
                ([*report.columns().values()] for report in reports))
