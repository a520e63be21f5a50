"""The recursions in numpy: one loop over chunks of steps, resumable.

In both recursions the gain sequence -- the gain matrix Sigma_k, the gain
vector c_k = Sigma_k phi_k and the scalar alpha_k -- depends on the
regressors only, never on the outputs: the RLS covariance recursion does
not see the measurements.  So each chunk of CHUNK steps first advances
the gains and then the estimates,

    eps_k = y_k - theta' phi_k,    theta += alpha_k eps_k c_k,

of R output realizations at once, as one (R, n) array.  A Monte Carlo
sweep over noise draws therefore pays for one gain sequence.  A single
run's estimate history is theta_0 plus the running sum of the steps
alpha_k eps_k c_k, which numpy's cumsum adds in the same order as the
loop, so no per-step history is stored while the loop runs.  A Recursion
holds the gains, theta and that running sum, and advances them over the
steps it is given: a run fed in chunks that hold a multiple of CHUNK
steps runs the same CHUNK-step pieces, and gives the same bytes, as a run
fed at once, which is what the two public functions do.

Node i updates its own gain matrix with its own scalar,
Sigma_i -= c_i c_i' / (gamma_i^2 + g_i) with g_i = phi_i' Sigma_i phi_i;
the shared alpha_k = 1 / (sigma^2 + sum_i g_i) enters the estimates only.
So the gains are m independent covariance recursions, kept as packed
per-node blocks (fir.packed_layout): an (m, p, p) array with p the largest
order; the padding is the identity with zero regressors, so it never changes.
Every block starts at init_c * I.  The central recursion is its one-block
case with gamma^2 = 1/info_weight; only that one block is n x n.
A chunk's gains come from block RLS (Haykin, Adaptive Filter Theory;
Sayed & Kailath, 1994).  For a chunk of regressors Phi of one node,
U = Sigma Phi' and G = gamma^2 I + Phi U = L L' give the chunk's gain
vectors c_j = L_jj x_j, with x_j row j of X' = L^-1 U', and the new gain
matrix Sigma - X X'.  The packed shape picks how L and X' are found,
for all nodes at once.  Blocks no wider than CHUNK (the distributed
layouts of small orders) take both from one batched Cholesky
factorisation of the bordered matrix [[G, U'], [U, Sigma]]; wider blocks
(central at n > CHUNK) factor G alone and solve L X' = U', which avoids
the (p + b)^2 bordered matrix and OpenBLAS's threads for its
factorisation.  The bordered factorisation also checks the new gain
matrix: its trailing block is the Cholesky factor of Sigma - X X', which
fails when a step all but projects Sigma (gamma^2 << g).  The other form
has no such check, so it refuses a chunk where some gamma_i^2 is below
NEGLIGIBLE times a step's gamma_i^2 + g_i.  The chunk's errors of all
realizations then solve the unit lower triangular system
(I + tril(Phi C', -1) diag(alpha)) e = y - Phi theta, and
theta += (alpha e)' C.

Plain, monitored, streamed and Monte Carlo runs all go through Recursion;
the protocol in ``central`` and ``distributed`` is the
specification they are tested against.  Both fail like the protocol, in
step order: they raise ``NumericError`` naming the first step where the
shared gain denominator is not a positive finite number (with the
protocol's own message, ``errors.check_denominator``) or an estimate,
prediction error or new gain matrix is non-finite.  A chunk the block
step refuses, and a chunk with such a step, is rerun from its start one
step at a time, each step by the protocol's rank-one update and then its
estimates, so the error names the step the protocol stops at and a run
the protocol completes continues after the chunk.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError, check_denominator
from .fir import packed_layout

#: steps per chunk of the kernels' loop
CHUNK = 16
#: a chunk whose gamma_i^2 is below this share of a step's gamma_i^2 + g_i
#: is rerun one step at a time when its blocks are wider than CHUNK
NEGLIGIBLE = 1e-12


def _non_finite(k: int) -> NumericError:
    return NumericError(f"step {k}: non-finite estimate, prediction error or gain")


def _rank_one_step(sigma, phi, gamma_sq, noise_var, k):
    """Step k of every node's recursion, as _block_steps returns a one-step chunk.

    This is the protocol's arithmetic: each node applies its own rank-one
    update whatever the sign of its gamma_i^2 + g_i, and only the shared
    denominator is checked; a bad one raises NumericError naming step k.
    """
    c = np.matmul(sigma, phi[:, 0, :, None])[..., 0]
    g = (phi[:, 0] * c).sum(axis=1)
    denom = noise_var + g.sum()
    check_denominator(denom, k)
    new_sigma = sigma - c[:, :, None] * c[:, None, :] / (gamma_sq + g)[:, None, None]
    return c[:, None], g[None], np.array([denom]), new_sigma


def _block_steps(sigma, phi, gamma_sq, noise_var):
    """One chunk of every node's recursion by block RLS.

    sigma is (m, p, p) and phi (m, b, p) for a chunk of b steps.  Returns
    the gain vectors (m, b, p), the per-node gains (b, m), the shared
    denominators (b,) and the new sigma.  Blocks wider than CHUNK factor
    G alone and solve L X' = U'; narrower ones factor the bordered matrix.
    The chunk is refused, and so rerun one step at a time:
    - by LinAlgError when a Cholesky factorisation fails: a node's
      gamma_i^2 + g_i, or in the bordered form its new gain matrix, is not
      numerically positive definite;
    - by NumericError when a shared denominator is not a positive finite
      number;
    - in the form that factors G alone, by NumericError when some
      gamma_i^2 is below NEGLIGIBLE times a step's L_jj^2 = gamma_i^2 + g_i,
      where the bordered form's factor of the new gain matrix would fail.
    """
    m, b, p = phi.shape
    u = np.matmul(sigma, phi.transpose(0, 2, 1))
    diag = np.arange(b)
    if p > CHUNK:
        gram = np.matmul(phi, u)
        gram[:, diag, diag] += gamma_sq[:, None]
        factor = np.linalg.cholesky(gram)
        pivots = factor[:, diag, diag]
        if (gamma_sq[:, None] < NEGLIGIBLE * pivots**2).any():
            raise NumericError("block step refused: gamma^2 is negligible against a gain")
        xt = np.linalg.solve(factor, u.transpose(0, 2, 1))
        c = xt * pivots[..., None]
    else:
        # the Cholesky factor of [[G, U'], [U, Sigma]] is [[L, 0], [X, *]]
        bordered = np.empty((m, b + p, b + p))
        np.matmul(phi, u, out=bordered[:, :b, :b])
        bordered[:, b:, :b] = u
        bordered[:, :b, b:] = u.transpose(0, 2, 1)
        bordered[:, b:, b:] = sigma
        bordered[:, diag, diag] += gamma_sq[:, None]
        factor = np.linalg.cholesky(bordered)
        xt = factor[:, b:, :b].transpose(0, 2, 1)
        c = xt * factor[:, diag, diag, None]
    # g_j = phi_j' c_j, not L_jj^2 - gamma^2, which cancels when gamma^2 >> g_j
    gains = (phi * c).sum(axis=2).T
    denom = noise_var + gains.sum(axis=1)
    if not (np.isfinite(denom) & (denom > 0.0)).all():
        raise NumericError("block step refused: a shared denominator is not positive finite")
    return c, gains, denom, sigma - np.matmul(xt.transpose(0, 2, 1), xt)


class Recursion:
    """Sigma, theta and the running sum of one recursion, advanced a chunk at a time.

    Each call of advance takes the regressors (b, n) and outputs of the
    next b steps, ys (b,) for one run or (R, b) for R realizations, and runs
    them in CHUNK-step pieces from the chunk's start.  So a run advanced in
    chunks that hold a multiple of CHUNK steps, the last chunk aside, runs
    the same pieces as a run advanced at once, and its bytes are the same.
    """

    def __init__(self, theta0, init_c, offsets, gamma_sq, noise_var):
        self.real, self.cols = packed_layout(offsets)
        p = self.real.shape[1]
        self.sigma = np.where(self.real[:, :, None], init_c, 1.0) * np.eye(p)
        self.gamma_sq, self.noise_var = gamma_sq, noise_var
        self.theta0, self.theta, self.total = theta0, None, theta0
        self.steps = 0

    @np.errstate(all="ignore")
    def advance(self, phis, ys):
        """The next chunk's estimates, errors, alphas (b,) and per-node gains (b, m).

        The estimates are the (b, n) history of one run, theta_0 plus the
        running sum of the steps carried from chunk to chunk, or the (R, n)
        estimates of R runs after the chunk; the errors are (b,) or (R, b).
        A non-finite value ends in NumericError naming the run's step, so
        numpy's floating-point warnings would only repeat it.
        """
        ys = np.asarray(ys, dtype=float)
        runs = np.atleast_2d(ys)
        if self.theta is None:
            self.theta = np.tile(self.theta0, (runs.shape[0], 1))
        real, cols, sigma, theta = self.real, self.cols, self.sigma, self.theta
        n_steps, n = phis.shape
        cs = np.empty((n_steps, n))
        alpha = np.empty(n_steps)
        gains = np.empty((n_steps, real.shape[0]))
        eps = np.empty(runs.shape)
        k = rerun_to = 0
        while k < n_steps:
            rerun = k < rerun_to
            size = 1 if rerun else CHUNK
            phi = phis[k:k + size]
            packed = np.where(real, phi[:, cols], 0.0).transpose(1, 0, 2)
            try:
                c, gains[k:k + size], denom, new_sigma = (
                    _rank_one_step(sigma, packed, self.gamma_sq, self.noise_var, self.steps + k)
                    if rerun else _block_steps(sigma, packed, self.gamma_sq, self.noise_var))
                cs[k:k + size] = c.transpose(1, 0, 2)[:, real]
                alpha[k:k + size] = 1.0 / denom
                # the C-ordered rows of cs, not the F-ordered gather: BLAS rounds
                # products of the two differently
                c, a = cs[k:k + size], alpha[k:k + size]
                # e_j = y_j - theta' phi_j - sum_{l<j} a_l e_l c_l' phi_j is a unit
                # lower triangular system in the chunk's errors
                lower = np.tril(phi @ c.T, -1) * a
                np.fill_diagonal(lower, 1.0)
                e = np.linalg.solve(lower, (runs[:, k:k + size] - theta @ phi.T).T).T
                new_theta = theta + (e * a) @ c
                # an overflowed or NaN entry of the new gain matrix puts one on
                # the diagonal of its row (Cauchy-Schwarz), so that is checked
                if not (np.isfinite(new_theta).all() and np.isfinite(e).all()
                        and np.isfinite(new_sigma.diagonal(axis1=1, axis2=2)).all()):
                    raise _non_finite(self.steps + k)
            except (NumericError, np.linalg.LinAlgError):
                # a refused chunk, or one that fails: the gains run ahead of the
                # chunk's estimates, and the solve spreads a non-finite value to
                # the chunk's earlier steps, so the chunk is rerun one step at a
                # time from its start; the first step that fails is the one the
                # protocol stops at
                if rerun:
                    raise
                rerun_to = k + size
                continue
            eps[:, k:k + size] = e
            sigma, theta, k = new_sigma, new_theta, k + size
        self.sigma, self.theta = sigma, theta
        self.steps += n_steps
        if ys.ndim == 2:
            return theta, eps, alpha, gains
        # the running sum of the steps a_k e_k c_k, over cs
        steps = np.multiply(cs, (alpha * eps[0])[:, None], out=cs)
        steps[:1] += self.total
        history = np.cumsum(steps, axis=0, out=steps)
        if n_steps:
            self.total = history[-1].copy()
        return history, eps[0], alpha, gains


def central(theta0, init_c, noise_var, info_weight) -> Recursion:
    """The central recursion from the gain matrix init_c * I: the one-block
    case, with gamma^2 = 1/info_weight (1/sigma^2 for the standard recursion,
    1/gamma^2 for the gamma-driven variant)."""
    n = len(theta0)
    return Recursion(theta0, init_c, np.array([0, n]), np.array([1.0 / info_weight]), noise_var)


def distributed(theta0, init_c, offsets, gammas, noise_var) -> Recursion:
    """The fused distributed recursion: node i starts from init_c * I of its
    own order, offsets[i]:offsets[i+1], and updates with gamma_i^2."""
    return Recursion(theta0, init_c, offsets, np.asarray(gammas, dtype=float) ** 2, noise_var)


def central_trajectory(phis, ys, theta0, init_c, noise_var, info_weight):
    """Run the central recursion over all samples at once.

    phis is (N, n) with row k the regressor used at step k; ys is (N,) for
    one run or (R, N) for R output realizations on the same regressors;
    theta0, init_c, noise_var and info_weight are those of ``central``.
    Returns the estimates (the (N, n) per-step history of one run, or the
    (R, n) final estimates of R runs), the prediction errors ((N,) or
    (R, N)), the (N,) gains alpha and the (N, 1) gain scalars phi' Sigma phi
    of the one block.
    """
    return central(theta0, init_c, noise_var, info_weight).advance(phis, ys)


def distributed_trajectory(phis, ys, theta0, init_c, offsets, gammas, noise_var):
    """Run the fused distributed recursion over all samples at once.

    ys, the estimates and the prediction errors are shaped as in
    ``central_trajectory``.  Returns the estimates, prediction errors,
    shared gains alpha (N,) and the per-node upstream gain scalars
    phi_i' Sigma_i phi_i of every round (N, m).
    """
    return distributed(theta0, init_c, offsets, gammas, noise_var).advance(phis, ys)
