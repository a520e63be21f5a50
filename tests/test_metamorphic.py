"""The kernels' exact scaling relations, bit for bit.

Scale the regressors, the outputs, every gamma_i and sigma by one s.  Then
the gain matrices and every estimate stay the same, alpha scales by s^-2
and the prediction errors by s.  For s = 2^j the scaling commutes with
every rounding: products, quotients, sums of like-scaled terms and the
Cholesky square roots, since sqrt(4^j x) = 2^j sqrt(x).  So the relation
holds exactly, whatever order BLAS sums in, barring overflow and
underflow.  The protocol layer, the executable specification of both
recursions, keeps the same relation, with its information matrices
unchanged too.  Likewise, at sigma = 0, taps scaled by 2^j scale the
outputs, and with them every estimate and error, by 2^j.  And the
modules may be listed in any order: the distributed estimates permute
with them.
"""
from dataclasses import replace

import numpy as np
import pytest

from misoid import central, distributed, kernels
from misoid.experiment import (ExperimentConfig, build_regressors, draw, generate_signals,
                               outputs_from_regressors, random_system)
from misoid.fir import FirModule, MisoSystem, RegressorBank, block_offsets, push_inputs

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


#: a system small enough for the object-level protocol, step by step
SMALL = ExperimentConfig(seed=5, m=4, order_range=(1, 3), samples=40)


def _protocol(system, inputs, phis, ys, gamma, sigma):
    """Central rls_update_gamma and distributed run_round from theta = 0:
    each step's central state, and each round's nodes and trace."""
    state = central.from_scratch_init(system.n, SMALL.init_c, sigma**2, mode="gamma")
    nodes = distributed.init_nodes(system.orders, SMALL.init_c, gamma)
    center = distributed.FusionCenter(sigma**2, system.m)
    bank, states, rounds = RegressorBank.for_system(system), [], []
    for k in range(len(ys)):
        state = central.rls_update_gamma(state, phis[k], ys[k], gamma)
        bank = push_inputs(bank, inputs[k])
        nodes, trace = distributed.run_round(nodes, center, bank, ys[k], k)
        states.append(state)
        rounds.append((nodes, trace))
    return states, rounds


@pytest.mark.parametrize("j", [-20, -3, 5, 30])
def test_input_scaling_keeps_every_protocol_state(j):
    # rls_update_gamma returns no alpha or eps, so those are read from
    # the distributed round's trace
    system = random_system(SMALL)
    inputs, noise = generate_signals(system, SMALL)
    phis = build_regressors(system, inputs)
    ys, s = outputs_from_regressors(system, phis, noise), 2.0**j
    gamma, sigma = SMALL.gamma, SMALL.noise_std
    states, rounds = _protocol(system, inputs, phis, ys, gamma, sigma)
    scaled = _protocol(system, inputs * s, phis * s, ys * s, gamma * s, sigma * s)
    for state, other in zip(states, scaled[0]):
        for field in ("theta_hat", "sigma_mat", "info_mat"):
            assert np.array_equal(getattr(other, field), getattr(state, field)), field
    for (nodes, trace), (others, other) in zip(rounds, scaled[1]):
        for node, scaled_node in zip(nodes, others):
            for field in ("theta_hat", "sigma", "info"):
                assert np.array_equal(getattr(scaled_node, field), getattr(node, field)), field
        assert other.down.alpha * s**2 == trace.down.alpha
        assert other.down.prediction_error / s == trace.down.prediction_error


@pytest.fixture(scope="module")
def paper_run(paper_draw):
    """The distributed kernel's estimates on the paper draw, and the draw."""
    system, phis, outputs = paper_draw
    estimates = _kernel("distributed", system, phis, outputs[1], CONFIG.gamma,
                        CONFIG.noise_std)[0]
    return system, phis, outputs[1], estimates


@pytest.mark.parametrize("seed", range(5))
def test_distributed_estimates_permute_with_the_modules(paper_run, seed):
    # not bit for bit: the shared gain (gains.sum) and the estimate's
    # increments (phi @ c.T) add the blocks' terms in another order
    system, phis, ys, estimates = paper_run
    order = np.random.default_rng(seed).permutation(system.m)
    offsets = block_offsets(system.orders)
    columns = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in order])
    permuted = MisoSystem(tuple(system.modules[i] for i in order))
    got = _kernel("distributed", permuted, phis[:, columns], ys, CONFIG.gamma,
                  CONFIG.noise_std)[0]
    assert np.max(np.abs(got - estimates[:, columns])) <= 1e-13 * np.max(np.abs(estimates))
