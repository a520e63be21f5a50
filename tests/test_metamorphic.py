"""The kernels' exact scaling relations, bit for bit.

Scale the regressors, the outputs, every gamma_i and sigma by one s.  Then
the gain matrices and every estimate stay the same, alpha scales by s^-2
and the prediction errors by s.  For s = 2^j the scaling commutes with
every rounding: products, quotients, sums of like-scaled terms and the
Cholesky square roots, since sqrt(4^j x) = 2^j sqrt(x).  So the relation
holds exactly, whatever order BLAS sums in, barring overflow and
underflow.  Likewise, at sigma = 0, taps scaled by 2^j scale the outputs,
and with them every estimate and error, by 2^j.
"""
from dataclasses import replace

import numpy as np
import pytest

from misoid import kernels
from misoid.experiment import ExperimentConfig, draw, random_system
from misoid.fir import FirModule, MisoSystem, block_offsets

#: the paper's system size, at fewer steps
CONFIG = ExperimentConfig(seed=7, m=20, order_range=(1, 10), samples=600)
#: at 2^-40 the shared denominators fall below 1e-20, where an absolute
#: constant added to them would show
EXPONENTS = [-40, -20, -3, 5, 30]
RUNS = 3


def _kernel(mode, system, phis, ys, gamma, sigma):
    """mode's kernel from theta = 0: the estimates, prediction errors and alphas."""
    theta0 = np.zeros(system.n)
    if mode == "central":
        out = kernels.central_trajectory(phis, ys, theta0, CONFIG.init_c, sigma**2,
                                         1.0 / gamma**2)
    else:
        out = kernels.distributed_trajectory(phis, ys, theta0, CONFIG.init_c,
                                             block_offsets(system.orders),
                                             np.full(system.m, gamma), sigma**2)
    return out[:3]


@pytest.fixture(scope="module")
def paper_draw():
    """The system, its regressors, and its outputs of one run and of RUNS runs."""
    system = random_system(CONFIG)
    phis, ys = draw(system, CONFIG)
    noise = np.random.default_rng([CONFIG.seed, 9]).normal(
        0.0, CONFIG.noise_std, size=(RUNS, CONFIG.samples))
    return system, phis, {1: ys, RUNS: ys + noise}


@pytest.mark.parametrize("runs", [1, RUNS])
@pytest.mark.parametrize("mode", ["central", "distributed"])
@pytest.mark.parametrize("j", EXPONENTS)
def test_input_scaling_keeps_every_estimate(paper_draw, j, mode, runs):
    system, phis, outputs = paper_draw
    ys, s = outputs[runs], 2.0**j
    gamma, sigma = CONFIG.gamma, CONFIG.noise_std
    estimates, eps, alpha = _kernel(mode, system, phis, ys, gamma, sigma)
    scaled = _kernel(mode, system, phis * s, ys * s, gamma * s, sigma * s)
    assert np.array_equal(scaled[0], estimates)  # and so every error theta - theta*
    assert np.array_equal(scaled[1] / s, eps)
    assert np.array_equal(scaled[2] * s**2, alpha)


@pytest.mark.parametrize("mode", ["central", "distributed"])
@pytest.mark.parametrize("j", EXPONENTS)
def test_taps_scaled_by_a_power_of_two_scale_every_error(j, mode):
    config = replace(CONFIG, noise_std=0.0)
    system = random_system(config)
    scaled = MisoSystem(tuple(FirModule(np.ldexp(module.coeffs, j))
                              for module in system.modules))
    errors = []
    for taps in (system, scaled):
        phis, ys = draw(taps, config)
        estimates = _kernel(mode, taps, phis, ys, config.gamma, 0.0)[0]
        errors.append(estimates - taps.theta_true())
    assert np.array_equal(errors[1], np.ldexp(errors[0], j))
