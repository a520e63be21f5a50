"""Whole-trajectory inner loops in numpy.

The per-sample recursions are cheap numpy calls executed thousands of
times, so running them as one loop over preallocated arrays, instead of
through the object-level protocol, is what keeps long runs fast.  Plain,
monitored and Monte Carlo runs all go through these two functions; the
protocol in ``central`` and ``distributed`` is the specification they are
tested against.

Both kernels fail like the protocol: they raise ``NumericError`` naming
the first step where the shared gain denominator is not a positive finite
number or an estimate, prediction error or gain is non-finite.
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


def _check_finite(theta_hist, eps_hist, alpha_hist):
    ok = np.isfinite(theta_hist).all(axis=1) & np.isfinite(eps_hist) & np.isfinite(alpha_hist)
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericError(f"step {k}: non-finite estimate, prediction error or gain")


def central_trajectory(phis, ys, theta0, sigma0, noise_var, info_weight):
    """Run the central recursion over all samples.

    phis is (N, n) with row k the regressor used at step k; info_weight is
    1/sigma^2 for the standard recursion or 1/gamma^2 for the gamma-driven
    variant.  Returns per-step estimates, prediction errors and gains.
    """
    n_steps, n = phis.shape
    theta = theta0.copy()
    sigma = sigma0.copy()
    theta_hist = np.empty((n_steps, n))
    eps_hist = np.empty(n_steps)
    alpha_hist = np.empty(n_steps)
    sm_denom_base = 1.0 / info_weight
    for k in range(n_steps):
        phi = phis[k]
        c = sigma @ phi
        s = phi @ c
        denom = noise_var + s
        if not 0.0 < denom < math.inf:
            raise _bad_denominator(k, denom)
        alpha = 1.0 / denom
        eps = ys[k] - phi @ theta
        theta = theta + alpha * eps * c
        sigma = sigma - (c.reshape(n, 1) * c.reshape(1, n)) / (sm_denom_base + s)
        sigma = 0.5 * (sigma + sigma.T)
        theta_hist[k] = theta
        eps_hist[k] = eps
        alpha_hist[k] = alpha
    _check_finite(theta_hist, eps_hist, alpha_hist)
    return theta_hist, eps_hist, alpha_hist


def distributed_trajectory(phis, ys, theta0, sigma0, offsets, gammas, noise_var):
    """Run the fused distributed recursion over all samples.

    sigma0 is the block-diagonal stacked gain matrix; offsets (length m+1)
    delimit the per-node blocks.  Returns per-step stacked estimates,
    shared errors/gains and the per-node upstream scalars of every round.
    """
    n_steps, n = phis.shape
    m = offsets.shape[0] - 1
    theta = theta0.copy()
    sigma = sigma0.copy()
    theta_hist = np.empty((n_steps, n))
    eps_hist = np.empty(n_steps)
    alpha_hist = np.empty(n_steps)
    preds_hist = np.empty((n_steps, m))
    gains_hist = np.empty((n_steps, m))
    cs = np.empty(n)
    for k in range(n_steps):
        phi = phis[k]
        pred_sum = 0.0
        gain_sum = 0.0
        for i in range(m):
            a, b = offsets[i], offsets[i + 1]
            phi_i = np.ascontiguousarray(phi[a:b])
            block = np.ascontiguousarray(sigma[a:b, a:b])
            c = block @ phi_i
            cs[a:b] = c
            preds_hist[k, i] = phi_i @ theta[a:b]
            gains_hist[k, i] = phi_i @ c
            pred_sum += preds_hist[k, i]
            gain_sum += gains_hist[k, i]
        eps = ys[k] - pred_sum
        denom = noise_var + gain_sum
        if not 0.0 < denom < math.inf:
            raise _bad_denominator(k, denom)
        alpha = 1.0 / denom
        for i in range(m):
            a, b = offsets[i], offsets[i + 1]
            ni = b - a
            c = cs[a:b]
            theta[a:b] = theta[a:b] + alpha * eps * c
            blk = sigma[a:b, a:b] - (c.reshape(ni, 1) * c.reshape(1, ni)) / (
                gammas[i] ** 2 + gains_hist[k, i]
            )
            sigma[a:b, a:b] = 0.5 * (blk + blk.T)
        theta_hist[k] = theta
        eps_hist[k] = eps
        alpha_hist[k] = alpha
    _check_finite(theta_hist, eps_hist, alpha_hist)
    return theta_hist, eps_hist, alpha_hist, preds_hist, gains_hist
