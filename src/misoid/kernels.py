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

There is one gain pass.  It keeps the stacked gain Sigma_B as the dense
n x n block-diagonal matrix.  Sigma_B phi is then exactly every node's
Sigma_i phi_i (the off-block entries are zero), the per-node gain scalars
phi_i' Sigma_i phi_i are one segmented sum, and the rank-one updates of all
blocks are one outer product divided row-wise by each block's denominator
and masked to the blocks: there is no loop over the nodes.  The central
recursion is its one-block case with gamma^2 = 1/info_weight.  Each update
entry (c_a c_b) / d is the same float at (a, b) and (b, a), so Sigma stays
exactly symmetric without a symmetrisation step.

Plain, monitored and Monte Carlo runs all go through the two public
functions; the protocol in ``central`` and ``distributed`` is the
specification they are tested against.  Both fail like the protocol: they
raise ``NumericError`` naming the first step where the shared gain
denominator is not a positive finite number or an estimate, prediction
error or gain is non-finite.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


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


def _gains(phis, sigma0, offsets, gamma_sq, noise_var):
    """Gain vectors c_k (N, n), alphas (N,) and per-block gains (N, m).

    Sigma is block-diagonal with blocks delimited by offsets; block i is
    updated with Sigma_i -= c_i c_i' / (gamma_sq[i] + phi_i' Sigma_i phi_i).
    """
    n_steps, n = phis.shape
    starts = offsets[:-1]
    block_of = np.repeat(np.arange(starts.shape[0]), np.diff(offsets))
    in_block = (block_of[:, None] == block_of[None, :]).astype(float)
    sigma = np.array(sigma0, dtype=float)
    buf = np.empty((n, n))
    cs = np.empty((n_steps, n))
    alpha = np.empty(n_steps)
    gains = np.empty((n_steps, starts.shape[0]))
    for k in range(n_steps):
        phi = phis[k]
        c = np.matmul(sigma, phi, out=cs[k])
        g = np.add.reduceat(phi * c, starts)
        gains[k] = g
        denom = noise_var + g.sum()
        if not 0.0 < denom < math.inf:
            raise _bad_denominator(k, denom)
        alpha[k] = 1.0 / denom
        np.multiply.outer(c, c, out=buf)
        buf /= (gamma_sq + g)[block_of][:, None]
        buf *= in_block
        sigma -= buf
    return cs, alpha, gains


def _history(theta0, cs, alpha, eps, out=None):
    """Row k: the estimate after step k, theta0 + sum_{j<=k} alpha_j eps_j c_j."""
    steps = np.multiply(cs, (alpha * eps)[:, None], out=out)
    steps[:1] += theta0
    return np.cumsum(steps, axis=0, out=steps)


def _estimate_pass(phis, ys, theta0, cs, alpha):
    """Run every output realization through the gain sequence.

    ys is (N,) for one run or (R, N) for R realizations.  Returns the
    (N, n) estimate history (written over cs) and the (N,) errors of one
    run, or the (R, n) final estimates and the (R, N) errors of R
    realizations.
    """
    ys = np.asarray(ys, dtype=float)
    runs = np.atleast_2d(ys)
    theta = np.tile(theta0, (runs.shape[0], 1))
    eps = np.empty(runs.shape)
    for k in range(phis.shape[0]):
        e = runs[:, k] - theta @ phis[k]
        theta += (alpha[k] * e)[:, None] * cs[k]
        eps[:, k] = e
    # theta += alpha eps c keeps a non-finite value non-finite, so the final
    # values show it; only then are histories built, to name the earliest step
    # a single run of any realization would name
    if not (np.isfinite(theta).all() and np.isfinite(eps).all()):
        steps = (_first_bad_step(_history(theta0, cs, alpha, e), e, alpha) for e in eps)
        raise _non_finite(min(k for k in steps if k is not None))
    if ys.ndim == 1:
        return _history(theta0, cs, alpha, eps[0], out=cs), eps[0]
    return theta, eps


def central_trajectory(phis, ys, theta0, sigma0, noise_var, info_weight):
    """Run the central recursion over all samples.

    phis is (N, n) with row k the regressor used at step k; ys is (N,) for
    one run or (R, N) for R output realizations on the same regressors;
    info_weight is 1/sigma^2 for the standard recursion or 1/gamma^2 for
    the gamma-driven variant.  Returns the estimates (the (N, n) per-step
    history of one run, or the (R, n) final estimates of R runs), the
    prediction errors ((N,) or (R, N)) and the (N,) gains alpha.
    """
    n = phis.shape[1]
    cs, alpha, _ = _gains(phis, sigma0, np.array([0, n]), np.array([1.0 / info_weight]),
                          noise_var)
    theta, eps = _estimate_pass(phis, ys, theta0, cs, alpha)
    return theta, eps, alpha


def distributed_trajectory(phis, ys, theta0, sigma0, offsets, gammas, noise_var):
    """Run the fused distributed recursion over all samples.

    sigma0 is the block-diagonal stacked gain matrix; offsets (length m+1)
    delimit the per-node blocks.  ys, the estimates and the prediction
    errors are shaped as in ``central_trajectory``.  Returns the estimates,
    prediction errors, shared gains alpha (N,) and the per-node upstream
    gain scalars phi_i' Sigma_i phi_i of every round (N, m).
    """
    gamma_sq = np.asarray(gammas, dtype=float) ** 2
    cs, alpha, gains = _gains(phis, sigma0, offsets, gamma_sq, noise_var)
    theta, eps = _estimate_pass(phis, ys, theta0, cs, alpha)
    return theta, eps, alpha, gains
