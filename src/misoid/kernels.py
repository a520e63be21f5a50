"""Whole-trajectory recursions in numpy: a gain pass and an estimate pass.

In both recursions the gain sequence -- the gain matrix Sigma_k, the gain
vector c_k = Sigma_k phi_k and the scalar alpha_k -- depends on the
regressors only, never on the outputs: the RLS covariance recursion does
not see the measurements.  So each kernel first runs the gain pass over the
regressors and then the estimate pass,

    eps_k = y_k - theta' phi_k,    theta += alpha_k eps_k c_k,

which carries R output realizations as one (R, n) array.  A Monte Carlo
sweep over noise draws therefore pays for one gain pass.  A single run's
estimate history is theta_0 plus the running sum of the steps
alpha_k eps_k c_k, which numpy's cumsum adds in the same order as the
loop, so no per-step history is stored while the pass runs.

There is one gain pass.  Node i updates its own block with its own scalar,
Sigma_i -= c_i c_i' / (gamma_i^2 + g_i) with g_i = phi_i' Sigma_i phi_i;
the shared alpha_k = 1 / (sigma^2 + sum_i g_i) enters the estimate pass
only.  So the pass is m independent covariance recursions, kept as packed
per-node blocks (fir.packed_layout): an (m, p, p) array with p the largest
order; the padding is the identity with zero regressors, so it never changes.
Every block starts at init_c * I.  The central recursion is its one-block
case with gamma^2 = 1/info_weight; only that one block is n x n.
Both passes advance CHUNK steps at a time (block RLS; Haykin, Adaptive
Filter Theory; Sayed & Kailath, 1994).  For a chunk of regressors Phi of
one node, U = Sigma Phi' and G = gamma^2 I + Phi U = L L' give the chunk's
gain vectors c_j = L_jj x_j, with x_j row j of X' = L^-1 U', and the new
gain matrix Sigma - X X'.  One batched Cholesky factorisation of the
bordered matrix [[G, U'], [U, Sigma]] yields L and X' for all nodes at
once.  The estimate pass solves the chunk's unit lower triangular system
(I + tril(Phi C', -1) diag(alpha)) e = y - Phi theta for the errors of all
realizations, then adds (alpha e)' C to theta.

Plain, monitored and Monte Carlo runs all go through the two public
functions; the protocol in ``central`` and ``distributed`` is the
specification they are tested against.  Both fail like the protocol: they
raise ``NumericError`` naming the first step where the shared gain
denominator is not a positive finite number or an estimate, prediction
error or gain is non-finite.  To name that step, a chunk whose Cholesky
factorisation fails, or that yields a bad shared denominator, is rerun one
step at a time with the packed rank-one updates, and an estimate pass that
ends non-finite is rerun one step at a time.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .fir import packed_layout

#: steps per chunk of the gain and estimate passes
CHUNK = 16


def _bad_denominator(k: int, denom) -> NumericError:
    return NumericError(
        f"step {k}: alpha denominator sigma^2 + phi' Sigma phi = {float(denom)!r} "
        "is not a positive finite number"
    )


def _first_bad_step(theta_hist, eps, alpha):
    ok = np.isfinite(theta_hist).all(axis=1) & np.isfinite(eps) & np.isfinite(alpha)
    return None if ok.all() else int(np.argmin(ok))


def _non_finite(k: int) -> NumericError:
    return NumericError(f"step {k}: non-finite estimate, prediction error or gain")


def _rank_one_steps(sigma, phi, gamma_sq, noise_var, k0):
    """The chunk starting at step k0 one step at a time, as _block_steps returns it.

    Each node applies its own rank-one update whatever the sign of its
    gamma_i^2 + g_i; only the shared denominator is checked, and the first
    bad one raises NumericError naming its step.  sigma is updated in place.
    """
    m, b, _ = phi.shape
    c = np.empty_like(phi)
    gains = np.empty((b, m))
    denom = np.empty(b)
    for j in range(b):
        cj = c[:, j] = np.matmul(sigma, phi[:, j, :, None])[..., 0]
        g = gains[j] = (phi[:, j] * cj).sum(axis=1)
        denom[j] = noise_var + g.sum()
        if not 0.0 < denom[j] < math.inf:
            raise _bad_denominator(k0 + j, denom[j])
        sigma -= cj[:, :, None] * cj[:, None, :] / (gamma_sq + g)[:, None, None]
    return c, gains, denom, sigma


def _block_steps(sigma, phi, gamma_sq, noise_var):
    """One chunk of every node's recursion by block RLS, or None if refused.

    sigma is (m, p, p) and phi (m, b, p) for a chunk of b steps.  Returns
    the gain vectors (m, b, p), the per-node gains (b, m), the shared
    denominators (b,) and the new sigma.  A chunk is refused when the
    Cholesky factorisation fails (a node's gamma_i^2 + g_i or its new gain
    matrix is not numerically positive definite) or a shared denominator is
    not a positive finite number.
    """
    m, b, p = phi.shape
    u = np.matmul(sigma, phi.transpose(0, 2, 1))
    # the Cholesky factor of [[G, U'], [U, Sigma]] is [[L, 0], [X, *]]
    bordered = np.empty((m, b + p, b + p))
    np.matmul(phi, u, out=bordered[:, :b, :b])
    bordered[:, b:, :b] = u
    bordered[:, :b, b:] = u.transpose(0, 2, 1)
    bordered[:, b:, b:] = sigma
    diag = np.arange(b)
    bordered[:, diag, diag] += gamma_sq[:, None]
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        return None
    xt = factor[:, b:, :b].transpose(0, 2, 1)
    c = xt * factor[:, diag, diag, None]
    # g_j = phi_j' c_j, not L_jj^2 - gamma^2, which cancels when gamma^2 >> g_j
    gains = (phi * c).sum(axis=2).T
    denom = noise_var + gains.sum(axis=1)
    if not ((0.0 < denom) & (denom < math.inf)).all():
        return None
    return c, gains, denom, sigma - np.matmul(xt.transpose(0, 2, 1), xt)


def _gains(phis, init_c, offsets, gamma_sq, noise_var):
    """Gain vectors c_k (N, n), alphas (N,) and per-node gains (N, m).

    Node i runs its own covariance recursion from init_c * I, CHUNK steps
    at a time; each chunk's regressors are gathered into the packed layout
    as the chunk is reached.
    """
    n_steps, n = phis.shape
    real, cols = packed_layout(offsets)
    m, p = real.shape
    sigma = np.where(real[:, :, None], init_c, 1.0) * np.eye(p)
    cs = np.empty((n_steps, n))
    alpha = np.empty(n_steps)
    gains = np.empty((n_steps, m))
    for k in range(0, n_steps, CHUNK):
        phi = np.where(real, phis[k:k + CHUNK, cols], 0.0).transpose(1, 0, 2)
        step = _block_steps(sigma, phi, gamma_sq, noise_var)
        if step is None:
            step = _rank_one_steps(sigma, phi, gamma_sq, noise_var, k)
        c, gains[k:k + CHUNK], denom, sigma = step
        cs[k:k + CHUNK] = c.transpose(1, 0, 2)[:, real]
        alpha[k:k + CHUNK] = 1.0 / denom
    return cs, alpha, gains


def _history(theta0, cs, alpha, eps, out=None):
    """Row k: the estimate after step k, theta0 + sum_{j<=k} alpha_j eps_j c_j."""
    steps = np.multiply(cs, (alpha * eps)[:, None], out=out)
    steps[:1] += theta0
    return np.cumsum(steps, axis=0, out=steps)


def _estimate_chunks(phis, runs, theta0, cs, alpha, chunk):
    """Final estimates (R, n) and errors (R, N) of R runs, chunk steps at a time.

    In a chunk, e_j = y_j - theta' phi_j - sum_{l<j} alpha_l e_l c_l' phi_j
    is a unit lower triangular system in the chunk's errors; one step per
    chunk is the single-step loop itself.
    """
    theta = np.tile(theta0, (runs.shape[0], 1))
    eps = np.empty(runs.shape)
    for k in range(0, phis.shape[0], chunk):
        phi, c, a = phis[k:k + chunk], cs[k:k + chunk], alpha[k:k + chunk]
        lower = np.tril(phi @ c.T, -1) * a
        np.fill_diagonal(lower, 1.0)
        e = np.linalg.solve(lower, (runs[:, k:k + chunk] - theta @ phi.T).T).T
        theta += (e * a) @ c
        eps[:, k:k + chunk] = e
    return theta, eps


@np.errstate(over="ignore", invalid="ignore")
def _estimate_pass(phis, ys, theta0, cs, alpha):
    """Run every output realization through the gain sequence.

    ys is (N,) for one run or (R, N) for R realizations.  Returns the
    (N, n) estimate history (written over cs) and the (N,) errors of one
    run, or the (R, n) final estimates and the (R, N) errors of R
    realizations.  A non-finite value ends in NumericError, so numpy's
    floating-point warnings would only repeat it.
    """
    ys = np.asarray(ys, dtype=float)
    runs = np.atleast_2d(ys)
    theta, eps = _estimate_chunks(phis, runs, theta0, cs, alpha, CHUNK)
    # theta += alpha eps c keeps a non-finite value non-finite, so the final
    # values show it.  A chunk's solve spreads it to the chunk's earlier
    # steps, so the errors are recomputed one step at a time, and histories
    # are built to name the earliest step a single run of any realization
    # would name
    if not (np.isfinite(theta).all() and np.isfinite(eps).all()):
        _, eps = _estimate_chunks(phis, runs, theta0, cs, alpha, 1)
        steps = (_first_bad_step(_history(theta0, cs, alpha, e), e, alpha) for e in eps)
        raise _non_finite(min(k for k in steps if k is not None))
    if ys.ndim == 1:
        return _history(theta0, cs, alpha, eps[0], out=cs), eps[0]
    return theta, eps


def central_trajectory(phis, ys, theta0, init_c, noise_var, info_weight):
    """Run the central recursion over all samples from the gain matrix init_c * I.

    phis is (N, n) with row k the regressor used at step k; ys is (N,) for
    one run or (R, N) for R output realizations on the same regressors;
    info_weight is 1/sigma^2 for the standard recursion or 1/gamma^2 for
    the gamma-driven variant.  Returns the estimates (the (N, n) per-step
    history of one run, or the (R, n) final estimates of R runs), the
    prediction errors ((N,) or (R, N)) and the (N,) gains alpha.
    """
    n = phis.shape[1]
    cs, alpha, _ = _gains(phis, init_c, np.array([0, n]), np.array([1.0 / info_weight]),
                          noise_var)
    theta, eps = _estimate_pass(phis, ys, theta0, cs, alpha)
    return theta, eps, alpha


def distributed_trajectory(phis, ys, theta0, init_c, offsets, gammas, noise_var):
    """Run the fused distributed recursion over all samples.

    Node i starts from init_c * I of its own order, offsets[i]:offsets[i+1].
    ys, the estimates and the prediction errors are shaped as in
    ``central_trajectory``.  Returns the estimates, prediction errors,
    shared gains alpha (N,) and the per-node upstream gain scalars
    phi_i' Sigma_i phi_i of every round (N, m).
    """
    gamma_sq = np.asarray(gammas, dtype=float) ** 2
    cs, alpha, gains = _gains(phis, init_c, offsets, gamma_sq, noise_var)
    theta, eps = _estimate_pass(phis, ys, theta0, cs, alpha)
    return theta, eps, alpha, gains
