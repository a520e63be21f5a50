"""Single-step reference forms of the Lyapunov monitor, written on the gain matrices.

lyapunov.check_trajectory computes every monitor column over all steps at
once from alpha, phi, the errors and the per-block gain scalars; the oracle
tests check it against these forms evaluated on protocol snapshots.
"""
import numpy as np

from misoid.lyapunov import DEGENERATE_DENOM_TOL, ORTHOGONAL_TOL


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


def phi_b(blk, phi) -> np.ndarray:
    """blockdiag(phi_i phi_i') for a stacked regressor phi, in the blocks of BlockState blk."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros((blk.n, blk.n))
    for a, b in zip(blk.offsets[:-1], blk.offsets[1:]):
        out[a:b, a:b] = np.outer(phi[a:b], phi[a:b])
    return out
