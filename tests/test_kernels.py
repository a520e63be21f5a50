import functools
import warnings

import numpy as np
import pytest

from misoid import kernels
from misoid.central import from_scratch_init, rls_update_gamma
from misoid.distributed import FusionCenter, init_nodes, run_round
from misoid.errors import NumericError
from misoid.experiment import (
    ExperimentConfig,
    build_regressors,
    draw,
    generate_signals,
    monte_carlo_distributed,
    outputs_from_regressors,
    random_system,
    run_central,
    run_distributed,
)
from misoid.fir import FirModule, MisoSystem, RegressorBank, block_offsets, push_inputs


def _reference_setup(samples=80, seed=3, orders=None):
    """Config, system, regressors and outputs; orders=None draws m=3 orders in 1..3."""
    if orders is None:
        cfg = ExperimentConfig(seed=seed, m=3, order_range=(1, 3),
                               noise_std=0.1, samples=samples)
        system = random_system(cfg)
    else:
        cfg = ExperimentConfig(seed=seed, m=len(orders), order_range=(min(orders), max(orders)),
                               noise_std=0.1, samples=samples)
        rng = np.random.default_rng([seed, 99])
        system = MisoSystem(tuple(FirModule(rng.normal(size=ni)) for ni in orders))
    inputs, noise = generate_signals(system, cfg)
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, noise)
    return cfg, system, phis, ys


def test_central_kernel_matches_object_layer():
    _check_central_kernel_against_object_layer()


# the passes advance CHUNK = 16 steps at a time: a lone step, one short of
# a chunk, one chunk, one step into the next, and a partial third chunk
CHUNK_EDGES = [1, 15, 16, 17, 37]
# blocks no wider than CHUNK take their gains from the bordered factorisation,
# wider ones from the Cholesky factor of G alone: orders [20, 1, 3] give the
# central block n = 24 and one distributed node of order 20
WIDE = [20, 1, 3]


@pytest.mark.parametrize("samples, orders",
                         [pytest.param(s, None, id=str(s)) for s in CHUNK_EDGES]
                         + [pytest.param(s, WIDE, id=f"{s}-wide") for s in CHUNK_EDGES])
def test_kernels_match_protocol_at_chunk_edges(samples, orders):
    assert kernels.CHUNK == 16
    _check_central_kernel_against_object_layer(samples, orders)
    _check_distributed_kernel_against_protocol(orders=orders, samples=samples)


def _refuse(*args):
    raise np.linalg.LinAlgError("block step refused")


@pytest.mark.parametrize("samples", CHUNK_EDGES)
def test_rank_one_rerun_matches_protocol(monkeypatch, samples):
    # refuse every block step, so each chunk runs through the rank-one rerun
    monkeypatch.setattr(kernels, "_block_steps", _refuse)
    _check_central_kernel_against_object_layer(samples)
    _check_distributed_kernel_against_protocol(orders=[3, 1, 2], samples=samples)


def test_block_step_resumes_after_a_rerun(monkeypatch):
    _check_block_step_resumes_after_a_rerun(monkeypatch, orders=None)


def test_block_step_resumes_after_a_rerun_on_a_wide_layout(monkeypatch):
    _check_block_step_resumes_after_a_rerun(monkeypatch, orders=WIDE)


def _check_block_step_resumes_after_a_rerun(monkeypatch, orders):
    # refuse the chunk at k = 16 only: its steps are rerun one at a time,
    # then the block step takes the partial chunk at k = 32 (5 of 37 steps)
    block_steps = kernels._block_steps
    lengths = []

    def refuse_second_chunk(sigma, phi, *rest):
        lengths.append(phi.shape[1])
        if len(lengths) == 2:
            _refuse()
        return block_steps(sigma, phi, *rest)

    monkeypatch.setattr(kernels, "_block_steps", refuse_second_chunk)
    _check_central_kernel_against_object_layer(samples=37, orders=orders)
    assert lengths == [16, 16, 5]
    lengths.clear()
    _check_distributed_kernel_against_protocol(orders=orders, samples=37)
    assert lengths == [16, 16, 5]


@pytest.mark.parametrize("seed, stop", [(0, None), (1, None), (2, 257), (3, None), (4, 181),
                                        (5, 164)])
def test_negligible_gamma_refuses_the_wide_chunk(seed, stop):
    # gamma^2 = 1e-6 against c ||phi||^2 of about 1e8: each step all but
    # projects Sigma, which the one-step path keeps positive definite; the
    # chunk form that factors G alone must refuse such a chunk to stop where
    # the one-step path stops and to complete where it completes
    cfg = ExperimentConfig(seed=seed, m=20, order_range=(1, 3), gamma=1e-3, init_c=1e8,
                           noise_std=0.0, samples=300)
    system = random_system(cfg)
    assert system.n > kernels.CHUNK
    phis, ys = draw(system, cfg)
    run = functools.partial(kernels.central_trajectory, phis, ys, np.zeros(system.n),
                            cfg.init_c, 0.0, 1.0 / cfg.gamma**2)
    if stop is None:
        assert np.isfinite(run()[0]).all()
    else:
        with pytest.raises(NumericError, match=f"^step {stop}: alpha denominator"):
            run()


def _check_central_kernel_against_object_layer(samples=80, orders=None):
    cfg, system, phis, ys = _reference_setup(samples=samples, orders=orders)
    n = system.n
    theta_hist, eps, alpha, _ = kernels.central_trajectory(
        phis, ys, np.zeros(n), cfg.init_c, cfg.noise_std**2,
        1.0 / cfg.gamma**2,
    )
    state = from_scratch_init(n, cfg.init_c, noise_var=cfg.noise_std**2, mode="gamma")
    for k in range(len(ys)):
        state = rls_update_gamma(state, phis[k], ys[k], cfg.gamma)
        assert np.allclose(theta_hist[k], state.theta_hat, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("runs, orders", [(None, None), (3, None), (None, WIDE), (3, WIDE)],
                         ids=["single", "realizations", "single-wide", "realizations-wide"])
def test_central_kernel_is_the_one_block_distributed_kernel(runs, orders):
    # at gamma = 2, 1/(1/gamma^2) == gamma^2 exactly, so both calls run the same floats
    cfg, system, phis, ys = _reference_setup(samples=60, orders=orders)
    n = system.n
    if runs is not None:
        ys = ys + np.random.default_rng(7).normal(0.0, 0.1, size=(runs, ys.size))
    gamma = 2.0
    assert 1.0 / (1.0 / gamma**2) == gamma**2
    central = kernels.central_trajectory(phis, ys, np.zeros(n), cfg.init_c,
                                         cfg.noise_std**2, 1.0 / gamma**2)
    one_block = kernels.distributed_trajectory(
        phis, ys, np.zeros(n), cfg.init_c, np.array([0, n]),
        np.array([gamma]), cfg.noise_std**2,
    )
    for got, want in zip(central, one_block, strict=True):
        assert np.array_equal(got, want)


def test_distributed_kernel_matches_protocol_layer():
    _check_distributed_kernel_against_protocol(orders=None)


@pytest.mark.parametrize("orders", [[12] + [1] * 6, [7], [1] * 25],
                         ids=["skewed", "one-node", "many-order-1"])
def test_distributed_kernel_matches_protocol_layer_on_layout(orders):
    _check_distributed_kernel_against_protocol(orders)


def _check_distributed_kernel_against_protocol(orders, samples=80):
    cfg, system, phis, ys = _reference_setup(samples=samples, orders=orders)
    n = system.n
    theta_hist, eps, alpha, gains = kernels.distributed_trajectory(
        phis, ys, np.zeros(n), cfg.init_c, block_offsets(system.orders),
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
        ups = sorted(tr.ups, key=lambda u: u.index)
        assert np.allclose(gains[k], [u.local_gain_scalar for u in ups], rtol=1e-9, atol=1e-12)


def _long_double_history(phis, ys, offsets, gamma_sq, noise_var, init_c):
    """The gamma-driven per-block recursion in np.longdouble, one step at a time.

    This is the protocol's arithmetic at a higher precision: node i's gain
    vector c_i = Sigma_i phi_i and scalar g_i = phi_i' c_i, the shared
    alpha = 1 / (sigma^2 + sum_i g_i), theta += alpha eps c and
    Sigma_i -= c_i c_i' / (gamma_i^2 + g_i).  The central recursion is its
    one-block case.  Returns the (N, n) estimate history.
    """
    ld = np.longdouble
    blocks = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    sigmas = [ld(init_c) * np.eye(b.stop - b.start, dtype=ld) for b in blocks]
    theta = np.zeros(phis.shape[1], dtype=ld)
    history = np.empty(phis.shape, dtype=ld)
    for k, (phi, y) in enumerate(zip(phis.astype(ld), ys.astype(ld))):
        cs = [sigma @ phi[b] for sigma, b in zip(sigmas, blocks)]
        gs = [phi[b] @ c for c, b in zip(cs, blocks)]
        alpha = 1 / (ld(noise_var) + sum(gs))
        theta = history[k] = theta + alpha * (y - phi @ theta) * np.concatenate(cs)
        sigmas = [sigma - np.outer(c, c) / (ld(g2) + g)
                  for sigma, c, g, g2 in zip(sigmas, cs, gs, gamma_sq)]
    return history


def _max_distance(history, reference):
    """max over steps of ||theta_k - theta_ld,k||"""
    return float(np.sqrt(((history - reference) ** 2).sum(axis=1)).max())


@functools.cache
def _paper_forward_errors(mode, gamma, sigma, samples=300):
    """On the paper system, for one mode, gamma and sigma: the kernel's run
    as a call, the long-double history and the protocol's forward error."""
    system = random_system(ExperimentConfig(seed=7, m=20, order_range=(1, 10)))
    cfg = ExperimentConfig(seed=1, m=system.m, noise_std=sigma, gamma=gamma, samples=samples)
    inputs, noise = generate_signals(system, cfg)
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, noise)
    noise_var, start = sigma**2, np.zeros(system.n)
    if mode == "central":
        offsets = np.array([0, system.n])
        kernel = functools.partial(kernels.central_trajectory, phis, ys, start, cfg.init_c,
                                   noise_var, 1.0 / gamma**2)
        state = from_scratch_init(system.n, cfg.init_c, noise_var=noise_var, mode="gamma")
        protocol = []
        for k in range(samples):
            state = rls_update_gamma(state, phis[k], ys[k], gamma)
            protocol.append(state.theta_hat)
    else:
        offsets = block_offsets(system.orders)
        kernel = functools.partial(kernels.distributed_trajectory, phis, ys, start, cfg.init_c,
                                   offsets, np.full(system.m, gamma), noise_var)
        nodes = init_nodes(system.orders, cfg.init_c, gamma)
        center = FusionCenter(noise_var=noise_var, m=system.m)
        bank = RegressorBank.for_system(system)
        protocol = []
        for k in range(samples):
            bank = push_inputs(bank, inputs[k])
            nodes, _ = run_round(nodes, center, bank, ys[k], k=k)
            protocol.append(np.concatenate([node.theta_hat for node in nodes]))
    gamma_sq = np.full(len(offsets) - 1, gamma**2)
    reference = _long_double_history(phis, ys, offsets, gamma_sq, noise_var, cfg.init_c)
    return kernel, reference, _max_distance(np.array(protocol), reference)


# the kernels' max forward error against long double, as a multiple of the
# protocol's own: measured 1.0-1.9, 15.6-15.9 for distributed at gamma = 1
# and 0.6-1.5 with every chunk refused; kernels.CHUNK = 32 reads 42 and
# CHUNK = 128 reads 458-468 for distributed at gamma = 1
FORWARD_ERROR_K = 30.0


@pytest.mark.parametrize("mode", ["central", "distributed"])
@pytest.mark.parametrize("gamma, sigma, refused",
                         [(100.0, 0.0, False), (100.0, 0.1, False), (1.0, 0.0, False),
                          (1.0, 0.1, False), (1.0, 0.1, True)],
                         ids=["gamma100-sigma0", "gamma100-sigma0.1", "gamma1-sigma0",
                              "gamma1-sigma0.1", "gamma1-sigma0.1-refused"])
def test_kernel_forward_error_is_near_the_protocols(monkeypatch, mode, gamma, sigma, refused):
    # refused: every chunk runs through the one-step rerun
    if refused:
        monkeypatch.setattr(kernels, "_block_steps", _refuse)
    kernel, reference, protocol_error = _paper_forward_errors(mode, gamma, sigma)
    assert _max_distance(kernel()[0], reference) <= FORWARD_ERROR_K * protocol_error


def _zero_input_setup(samples=5):
    """Noise-free run on all-zero inputs: the alpha denominator is 0 at step 0."""
    cfg = ExperimentConfig(seed=1, m=2, order_range=(1, 2), noise_std=0.0,
                           samples=samples)
    system = random_system(cfg)
    return cfg, system, np.zeros((samples, system.m)), np.zeros(samples)


def test_kernels_reject_zero_denominator():
    _check_zero_denominator(runs=None)


def test_kernels_reject_zero_denominator_over_realizations():
    _check_zero_denominator(runs=3)


def _check_zero_denominator(runs):
    _, system, _, _ = _zero_input_setup()
    n = system.n
    phis = np.zeros((5, n))
    ys = np.zeros(5) if runs is None else np.zeros((runs, 5))
    with pytest.raises(NumericError, match="step 0"):
        kernels.central_trajectory(phis, ys, np.zeros(n), 1.0, 0.0, 1.0)
    with pytest.raises(NumericError, match="step 0"):
        kernels.distributed_trajectory(phis, ys, np.zeros(n), 1.0,
                                       block_offsets(system.orders), np.ones(system.m), 0.0)


def _zero_inputs_from_step_20():
    """Orders (1, 2), sigma = 0 and inputs zero from step 20 on: every
    regressor is zero from step 21, inside the chunk of steps 16..31."""
    rng = np.random.default_rng(11)
    system = MisoSystem((FirModule(rng.normal(size=1)), FirModule(rng.normal(size=2))))
    inputs = rng.normal(size=(40, 2))
    inputs[20:] = 0.0
    phis = build_regressors(system, inputs)
    return system, inputs, phis, outputs_from_regressors(system, phis, np.zeros(40))


def _check_kernels_and_protocol_fail_at(step, system, inputs, phis, ys, init_c, gamma, match):
    n = system.n
    with pytest.raises(NumericError, match=f"step {step}:") as central_kernel:
        kernels.central_trajectory(phis, ys, np.zeros(n), init_c, 0.0, 1.0 / gamma**2)
    with pytest.raises(NumericError, match=f"step {step}:") as distributed_kernel:
        kernels.distributed_trajectory(phis, ys, np.zeros(n), init_c,
                                       block_offsets(system.orders), np.full(system.m, gamma), 0.0)
    state = from_scratch_init(n, init_c, noise_var=0.0)
    nodes = init_nodes(system.orders, init_c, gamma)
    center = FusionCenter(noise_var=0.0, m=system.m)
    bank = RegressorBank.for_system(system)
    for k in range(step):
        state = rls_update_gamma(state, phis[k], ys[k], gamma)
        bank = push_inputs(bank, inputs[k])
        nodes, _ = run_round(nodes, center, bank, ys[k], k=k)
    with pytest.raises(NumericError, match=match) as central_protocol:
        rls_update_gamma(state, phis[step], ys[step], gamma)
    bank = push_inputs(bank, inputs[step])
    with pytest.raises(NumericError, match=match) as distributed_protocol:
        run_round(nodes, center, bank, ys[step], k=step)
    if "alpha denominator" in match:
        # one message for the alpha rule: the protocol's is the kernel's
        # without the step prefix
        for kernel, protocol in ((central_kernel, central_protocol),
                                 (distributed_kernel, distributed_protocol)):
            assert str(kernel.value) == f"step {step}: {protocol.value}"


def test_zero_denominator_inside_a_chunk():
    system, inputs, phis, ys = _zero_inputs_from_step_20()
    _check_kernels_and_protocol_fail_at(21, system, inputs, phis, ys, 100.0, 100.0,
                                        "alpha denominator")


def test_kernels_fail_in_step_order():
    # a NaN output at step 4, in the first chunk, before the zero gain
    # denominator of step 21: the protocol stops at step 4, so must the kernels
    system, inputs, phis, ys = _zero_inputs_from_step_20()
    ys[4] = np.nan
    _check_kernels_and_protocol_fail_at(4, system, inputs, phis, ys, 100.0, 100.0,
                                        "non-finite")


def test_infinite_denominator_is_a_numeric_error():
    # phi_0 = (1e160, 1, 0) and c = 100: the first node's gain scalar
    # overflows to inf, so alpha would be 0; both estimators stop at step 0
    system = MisoSystem((FirModule(np.array([0.5])), FirModule(np.array([1.0, -0.5]))))
    inputs = np.array([[1e160, 1.0], [1e160, 1.0], [1.0, 1.0]])
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, np.zeros(3))
    with np.errstate(all="ignore"):
        _check_kernels_and_protocol_fail_at(0, system, inputs, phis, ys, 100.0, 100.0,
                                            "alpha denominator .* = inf is not a positive finite")


def test_overflowed_gain_matrix_is_named_at_its_step():
    # c = 1e150 and inputs near 1e6: phi' Sigma phi is finite at step 0, but
    # c c' overflows, so the new gain matrix is non-finite; both estimators
    # stop at step 0, before the next step's denominator meets it
    system = MisoSystem((FirModule(np.array([0.5, 0.2])), FirModule(np.array([1.0]))))
    inputs = np.random.default_rng(0).normal(size=(40, 2)) * 1e6
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, np.zeros(40))
    with np.errstate(all="ignore"):
        _check_kernels_and_protocol_fail_at(0, system, inputs, phis, ys, 1e150, 1.0,
                                            "non-finite")


@pytest.mark.parametrize("tiny_steps", [20, 1], ids=["all-steps", "step-0"])
def test_subnormal_denominator_is_a_numeric_error(tiny_steps):
    # phi_i' Sigma phi_i = 1e-320 is subnormal: alpha = 1 / 2e-320 overflows
    # to inf, which the protocol's update turns non-finite at step 0.  With
    # normal inputs after step 0, the chunk's solve meets a singular pivot
    rng = np.random.default_rng(2)
    system = MisoSystem((FirModule(rng.normal(size=1)), FirModule(rng.normal(size=1))))
    inputs = np.random.default_rng(0).normal(size=(20, 2))
    inputs[:tiny_steps] = 1e-160
    phis = build_regressors(system, inputs)
    ys = outputs_from_regressors(system, phis, np.zeros(20))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check_kernels_and_protocol_fail_at(0, system, inputs, phis, ys, 1.0, 1.0,
                                            "non-finite")


def test_kernels_name_first_non_finite_step():
    _check_first_non_finite_step(runs=None)


def test_kernels_name_first_non_finite_step_over_realizations():
    _check_first_non_finite_step(runs=3)


# (samples, the bad step of each bad realization): inside the first chunk,
# and in later chunks, where the earlier bad step is the later realization's
NON_FINITE_CASES = {None: [(10, [4]), (40, [17])], 3: [(10, [4, 7]), (40, [35, 20])]}


def _check_first_non_finite_step(runs):
    for samples, bad in NON_FINITE_CASES[runs]:
        cfg, system, phis, ys = _reference_setup(samples=samples)
        n = system.n
        ys = ys.copy() if runs is None else np.tile(ys, (runs, 1))
        for r, (k, value) in enumerate(zip(bad, [np.nan, np.inf])):
            if runs is None:
                ys[k] = value
            else:
                ys[r + 1, k] = value
        with pytest.raises(NumericError, match=f"step {min(bad)}:"):
            kernels.central_trajectory(phis, ys, np.zeros(n), 1.0, 0.01, 1e-4)
        with pytest.raises(NumericError, match=f"step {min(bad)}:"):
            kernels.distributed_trajectory(phis, ys, np.zeros(n), 1.0, block_offsets(system.orders),
                                           np.full(system.m, 100.0), 0.01)


def test_realizations_match_single_runs():
    _check_realizations_match_single_runs(samples=60)


@pytest.mark.parametrize("samples", CHUNK_EDGES)
def test_realizations_match_single_runs_at_chunk_edges(samples):
    _check_realizations_match_single_runs(samples)


def _check_realizations_match_single_runs(samples):
    cfg, system, phis, ys = _reference_setup(samples=samples)
    n = system.n
    rng = np.random.default_rng(5)
    many = ys + rng.normal(0.0, 0.1, size=(3, ys.size))
    args = (rng.normal(size=n), cfg.init_c)  # a nonzero start enters the history
    for kernel, rest in ((kernels.central_trajectory, (0.01, 1e-4)),
                         (kernels.distributed_trajectory,
                          (block_offsets(system.orders), np.full(system.m, 100.0), 0.01))):
        finals, eps = kernel(phis, many, *args, *rest)[:2]
        assert finals.shape == (3, n) and eps.shape == (3, ys.size)
        for r in range(3):
            hist, eps_r = kernel(phis, many[r], *args, *rest)[:2]
            assert np.allclose(finals[r], hist[-1], rtol=1e-10, atol=1e-14)
            assert np.allclose(eps[r], eps_r, rtol=1e-10, atol=1e-14)


def test_monte_carlo_names_the_step_of_a_single_run():
    # gamma -> 0 turns each node's update into a projection, so with
    # sigma = 0 the shared gain denominator reaches 0 after max order steps
    cfg = ExperimentConfig(seed=1, m=3, order_range=(1, 2), noise_std=0.0, gamma=1e-150,
                           samples=20, monte_carlo_runs=2)
    system = random_system(cfg)
    inputs, noise = generate_signals(system, cfg)
    with pytest.raises(NumericError, match="alpha denominator") as single:
        run_distributed(system, inputs, noise, cfg)
    with pytest.raises(NumericError) as sweep:
        monte_carlo_distributed(system, cfg)
    assert str(sweep.value) == str(single.value)


@pytest.mark.parametrize("runner", [run_central, run_distributed])
@pytest.mark.parametrize("monitor", [False, True])
def test_runs_raise_numeric_error(runner, monitor):
    cfg, system, inputs, noise = _zero_input_setup()
    with pytest.raises(NumericError, match="step 0"):
        runner(system, inputs, noise, cfg, monitor=monitor)
