import numpy as np
import pytest

from misoid import kernels
from misoid.central import from_scratch_init, rls_update_gamma
from misoid.distributed import FusionCenter, init_nodes, run_round
from misoid.errors import NumericError
from misoid.experiment import (
    ExperimentConfig,
    block_offsets,
    build_regressors,
    generate_signals,
    outputs_from_regressors,
    random_system,
    run_central,
    run_distributed,
)
from misoid.fir import RegressorBank, push_inputs


def _reference_setup(samples=80, seed=3):
    cfg = ExperimentConfig(seed=seed, m=3, order_range=(1, 3),
                          noise_std=0.1, samples=samples)
    system = random_system(cfg)
    inputs, noise = generate_signals(system, cfg)
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, noise)
    return cfg, system, phis, ys


def test_central_kernel_matches_object_layer():
    cfg, system, phis, ys = _reference_setup()
    n = system.n
    theta_hist, eps, alpha = kernels.central_trajectory(
        phis, ys, np.zeros(n), cfg.init_c * np.eye(n), cfg.noise_std**2,
        1.0 / cfg.gamma**2,
    )
    state = from_scratch_init(n, cfg.init_c, noise_var=cfg.noise_std**2, mode="gamma")
    for k in range(len(ys)):
        state = rls_update_gamma(state, phis[k], ys[k], cfg.gamma)
        assert np.allclose(theta_hist[k], state.theta_hat, rtol=1e-10, atol=1e-12)


def test_distributed_kernel_matches_protocol_layer():
    cfg, system, phis, ys = _reference_setup()
    n = system.n
    theta_hist, eps, alpha, preds, gains = kernels.distributed_trajectory(
        phis, ys, np.zeros(n), cfg.init_c * np.eye(n), block_offsets(system),
        np.full(system.m, cfg.gamma), cfg.noise_std**2,
    )
    inputs, _ = generate_signals(system, cfg)
    nodes = init_nodes(system.orders, cfg.init_c, cfg.gamma)
    center = FusionCenter(noise_var=cfg.noise_std**2, m=system.m)
    bank = RegressorBank.for_system(system)
    for k in range(len(ys)):
        bank = push_inputs(bank, inputs[k])
        nodes, tr = run_round(nodes, center, bank, ys[k], k=k)
        theta = np.concatenate([node.theta_hat for node in nodes])
        assert np.allclose(theta_hist[k] - system.theta_true(), theta - system.theta_true(),
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(eps[k], tr.down.prediction_error, rtol=1e-9, atol=1e-12)
        assert np.allclose(alpha[k], tr.down.alpha, rtol=1e-9, atol=1e-12)


def _zero_input_setup(samples=5):
    """Noise-free run on all-zero inputs: the alpha denominator is 0 at step 0."""
    cfg = ExperimentConfig(seed=1, m=2, order_range=(1, 2), noise_std=0.0,
                           samples=samples)
    system = random_system(cfg)
    return cfg, system, np.zeros((samples, system.m)), np.zeros(samples)


def test_kernels_reject_zero_denominator():
    _, system, _, _ = _zero_input_setup()
    n = system.n
    phis, ys = np.zeros((5, n)), np.zeros(5)
    with pytest.raises(NumericError, match="step 0"):
        kernels.central_trajectory(phis, ys, np.zeros(n), np.eye(n), 0.0, 1.0)
    with pytest.raises(NumericError, match="step 0"):
        kernels.distributed_trajectory(phis, ys, np.zeros(n), np.eye(n),
                                       block_offsets(system), np.ones(system.m), 0.0)


def test_kernels_name_first_non_finite_step():
    cfg, system, phis, ys = _reference_setup(samples=10)
    n = system.n
    ys = ys.copy()
    ys[4] = np.nan
    with pytest.raises(NumericError, match="step 4"):
        kernels.central_trajectory(phis, ys, np.zeros(n), np.eye(n), 0.01, 1e-4)
    with pytest.raises(NumericError, match="step 4"):
        kernels.distributed_trajectory(phis, ys, np.zeros(n), np.eye(n),
                                       block_offsets(system), np.full(system.m, 100.0), 0.01)


@pytest.mark.parametrize("runner", [run_central, run_distributed])
@pytest.mark.parametrize("monitor", [False, True])
def test_runs_raise_numeric_error(runner, monitor):
    cfg, system, inputs, noise = _zero_input_setup()
    with pytest.raises(NumericError, match="step 0"):
        runner(system, inputs, noise, cfg, monitor=monitor)
