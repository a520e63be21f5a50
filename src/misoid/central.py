"""Central least-squares baselines: batch LSE and recursive LSE.

The recursive estimator keeps both the gain matrix and its inverse (the
information matrix) up to date through rank-one updates.  Each update
entry is the same float at (a, b) and (b, a), so a symmetric state stays
exactly symmetric; only the batch seed, whose LAPACK inverses are not
exactly symmetric, is symmetrised, once.
A gamma-driven variant replaces the 1/sigma^2 weight in the information
recursion with 1/gamma^2, which is the form used for the side-by-side
comparison against the distributed estimator.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionError, NumericError, ParameterError, SingularMatrixError,
                     check_denominator, check_scale)

#: condition number above which normal equations are treated as singular
COND_LIMIT = 1e12


@dataclass(frozen=True)
class CentralState:
    """Central estimate with its gain matrix and information matrix."""

    theta_hat: np.ndarray
    sigma_mat: np.ndarray
    info_mat: np.ndarray
    noise_var: float
    mode: str = "sigma"  # "sigma" or "gamma"

    @property
    def n(self) -> int:
        return self.theta_hat.size


def from_scratch_init(n: int, c: float, noise_var: float = 1.0, mode: str = "sigma") -> CentralState:
    """Zero estimate with gain c*I (and information (1/c)*I)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    check_scale("c", c)
    if not 0 <= noise_var < np.inf:
        raise ParameterError("noise_var must be finite and >= 0")
    return CentralState(
        theta_hat=np.zeros(n),
        sigma_mat=c * np.eye(n),
        info_mat=(1.0 / c) * np.eye(n),
        noise_var=float(noise_var),
        mode=mode,
    )


def _normal_equations(data_matrix, outputs):
    """Phi^T Phi and Phi^T y, with Phi^T Phi rejected when numerically singular."""
    phi_mat = np.asarray(data_matrix, dtype=float)
    y = np.asarray(outputs, dtype=float)
    if phi_mat.ndim != 2 or y.ndim != 1 or phi_mat.shape[0] != y.size:
        raise DimensionError(
            f"incompatible shapes {phi_mat.shape} and {y.shape}"
        )
    gram = phi_mat.T @ phi_mat
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"normal equations are numerically singular (cond ~ {cond:.3e})"
        )
    return gram, phi_mat.T @ y


def batch_lse(data_matrix, outputs) -> np.ndarray:
    """Solve argmin ||y - Phi theta||^2 via the normal equations."""
    return np.linalg.solve(*_normal_equations(data_matrix, outputs))


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def seed_from_batch(data_matrix, outputs, noise_var: float) -> CentralState:
    """Batch estimate and gain matrix sigma^2 (Phi^T Phi)^-1 as a recursion state."""
    gram, rhs = _normal_equations(data_matrix, outputs)
    sigma = _symmetrize(noise_var * np.linalg.inv(gram))
    return CentralState(
        theta_hat=np.linalg.solve(gram, rhs),
        sigma_mat=sigma,
        info_mat=_symmetrize(np.linalg.inv(sigma)),
        noise_var=float(noise_var),
    )


def _rank_one_step(state: CentralState, phi, y, info_weight: float) -> CentralState:
    """Shared core of the sigma- and gamma-driven updates.

    info_weight is the rank-one weight in the information recursion
    (1/sigma^2 or 1/gamma^2); the gain matrix is updated with the matching
    Sherman-Morrison correction so both representations stay consistent.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (state.n,):
        raise DimensionError(f"regressor shape {phi.shape}, expected ({state.n},)")
    if not np.all(np.isfinite(phi)):
        raise NumericError("non-finite regressor")

    c = state.sigma_mat @ phi
    s = float(phi @ c)
    denom = state.noise_var + s
    check_denominator(denom)
    alpha = 1.0 / denom
    eps = float(y) - float(phi @ state.theta_hat)

    theta_new = state.theta_hat + alpha * eps * c
    # Sherman-Morrison form of (Sigma^-1 + w phi phi')^-1 with w = info_weight
    sm_denom = 1.0 / info_weight + s
    sigma_new = state.sigma_mat - np.outer(c, c) / sm_denom
    info_new = state.info_mat + info_weight * np.outer(phi, phi)

    if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(sigma_new))):
        raise NumericError("non-finite value produced by recursive update")
    return replace(state, theta_hat=theta_new, sigma_mat=sigma_new, info_mat=info_new)


def rls_update(state: CentralState, phi, y: float) -> CentralState:
    """Standard recursive LSE step; requires a positive noise variance."""
    if state.noise_var <= 0:
        raise ParameterError("sigma-driven update needs noise_var > 0")
    return _rank_one_step(state, phi, y, 1.0 / state.noise_var)


def rls_update_gamma(state: CentralState, phi, y: float, gamma: float) -> CentralState:
    """Recursive LSE step with the gamma-weighted information recursion.

    The estimate update keeps the sigma^2 term in its gain; only the
    information recursion swaps 1/sigma^2 for 1/gamma^2.
    """
    check_scale("gamma", gamma)
    return _rank_one_step(state, phi, y, 1.0 / gamma**2)

