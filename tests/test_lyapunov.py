import numpy as np
import pytest

from misoid.central import from_scratch_init, rls_update, rls_update_gamma
from misoid.distributed import FusionCenter, init_nodes, run_round, stack
from misoid.errors import DimensionError, ParameterError
from misoid.experiment import (
    ExperimentConfig,
    build_regressors,
    generate_signals,
    outputs_from_regressors,
    random_system,
    run_central,
    run_distributed,
    run_experiment,
)
from misoid.fir import RegressorBank, push_inputs
from misoid.lyapunov import (
    VIOLATION_TOL,
    delta_w_central_closed,
    delta_w_central_general,
    gamma_sufficiency_bound,
    is_orthogonal,
    overline_delta_w_b,
    w_quadratic,
)


class TestWQuadratic:
    def test_identity_form(self):
        assert w_quadratic(np.array([3.0, 4.0]), np.eye(2)) == 25.0

    def test_zero_error(self):
        assert w_quadratic(np.zeros(3), np.eye(3)) == 0.0

    def test_scalar(self):
        assert w_quadratic(np.array([1.0]), np.array([[2.0]])) == 2.0

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            w_quadratic(np.zeros(2), np.eye(3))


class TestCentralClosedForm:
    def test_scalar_substitution(self):
        val = delta_w_central_closed(np.array([1.0]), np.array([1.0]), np.eye(1), 1.0)
        assert val == pytest.approx(-0.5)

    def test_orthogonal_gives_zero(self):
        err = np.array([1.0, -1.0])
        phi = np.array([1.0, 1.0])
        assert delta_w_central_closed(err, phi, np.eye(2), 0.5) == 0.0

    def test_matches_direct_difference_random_instance(self):
        # oracle: one actual update and a subtraction of quadratic forms
        rng = np.random.default_rng(21)
        theta_true = rng.normal(size=3)
        state = from_scratch_init(3, 50.0, noise_var=0.09)
        for _ in range(5):  # move off the trivial start
            phi = rng.normal(size=3)
            state = rls_update(state, phi, float(phi @ theta_true))
        phi = rng.normal(size=3)
        err = state.theta_hat - theta_true
        w_before = w_quadratic(err, state.info_mat)
        new = rls_update(state, phi, float(phi @ theta_true))
        w_after = w_quadratic(new.theta_hat - theta_true, new.info_mat)
        closed = delta_w_central_closed(err, phi, state.sigma_mat, 0.3)
        assert w_after - w_before == pytest.approx(closed, rel=1e-10)

    def test_requires_positive_sigma(self):
        with pytest.raises(ParameterError):
            delta_w_central_closed(np.ones(1), np.ones(1), np.eye(1), 0.0)


class TestOverlineDeltaW:
    def test_orthogonal_case(self):
        err = np.array([1.0, -1.0])
        phi = np.array([1.0, 1.0])
        assert overline_delta_w_b(err, phi, np.eye(2), 0.5) == 0.0

    def test_scalar_substitution(self):
        val = overline_delta_w_b(np.array([1.0]), np.array([1.0]), np.eye(1), 0.5)
        assert val == pytest.approx(-0.75)

    def test_expanded_and_factored_forms_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            sigma_b = a @ a.T + n * np.eye(n)
            err = rng.normal(size=n)
            phi = rng.normal(size=n)
            alpha = float(abs(rng.normal())) + 0.05
            proj = float(err @ phi)
            s = float(phi @ sigma_b @ phi)
            expanded = alpha**2 * proj * s * proj - 2.0 * alpha * proj**2
            got = overline_delta_w_b(err, phi, sigma_b, alpha)
            assert got == pytest.approx(expanded, rel=1e-12, abs=1e-12)


class TestGammaBound:
    def test_degenerate_on_zero_numerator_path(self):
        # orthogonal next error makes the denominator vanish
        err = np.array([0.0])
        bound = gamma_sufficiency_bound(err, np.eye(1), np.eye(1), -1.0)
        assert np.isinf(bound)

    def test_scalar_substitution(self):
        bound = gamma_sufficiency_bound(
            np.array([1.0]), np.array([[0.5]]), np.array([[1.0]]), -0.75
        )
        assert bound == pytest.approx(3.0)

    def test_bound_satisfaction_implies_decrease_on_run(self):
        # oracle: direct W_B differences along a monitored noise-free run
        cfg = ExperimentConfig(seed=2, m=2, order_range=(1, 3),
                               noise_std=0.0, samples=500)
        res = run_experiment(cfg, monitor=True)
        rep = res.distributed.monitor
        certified = [
            r for r in rep.records
            if np.isfinite(r.gamma_bound) and r.gamma_sum < r.gamma_bound
        ]
        assert certified  # the bound actually fires somewhere
        assert all(r.delta_w < 0 for r in certified)


class TestCheckTrajectory:
    def test_central_noise_free_run_clean(self):
        cfg = ExperimentConfig(seed=5, m=2, order_range=(1, 3),
                               noise_std=0.0, samples=400, mode="central")
        res = run_experiment(cfg, monitor=True)
        rep = res.central.monitor
        assert rep.violations == []
        # strict decrease only while W is still resolvable in float64; in
        # the converged tail the sign of the difference is rounding noise
        non_orth = [r for r in rep.records if not r.orthogonal_flag and r.w > 1e-10]
        assert non_orth
        assert all(r.delta_w < 0 for r in non_orth)

    def test_start_at_truth_keeps_w_zero(self):
        from misoid.distributed import FusionCenter, NodeState, run_round, stack
        from misoid.fir import RegressorBank, push_inputs
        from misoid.lyapunov import RunTrace, check_trajectory

        rng = np.random.default_rng(30)
        orders = [2, 1]
        theta_parts = [rng.normal(size=o) for o in orders]
        theta_true = np.concatenate(theta_parts)
        nodes = [
            NodeState(i, theta_parts[i].copy(), 10.0 * np.eye(o), np.eye(o) / 10.0, 100.0)
            for i, o in enumerate(orders)
        ]
        center = FusionCenter(noise_var=0.0, m=2)
        bank = RegressorBank.zeros(orders)
        start = stack(nodes)
        thetas = [start.theta]
        phis, alphas, gains = [], [], []
        for _ in range(20):
            bank = push_inputs(bank, rng.normal(size=2))
            y = float(bank.stacked() @ theta_true)
            nodes, tr = run_round(nodes, center, bank, y)
            thetas.append(stack(nodes).theta)
            phis.append(bank.stacked())
            alphas.append(tr.down.alpha)
            gains.append([msg.local_gain_scalar for msg in tr.ups])
        trace = RunTrace(
            errors=np.array(thetas) - theta_true, phis=np.array(phis),
            alphas=np.array(alphas), noise_var=0.0, info0=start.info_b,
            weights=1.0 / start.gammas**2, offsets=start.offsets, gains=np.array(gains),
        )
        rep = check_trajectory(trace, "distributed")
        assert all(abs(r.w) < 1e-20 for r in rep.records)

    def test_small_gamma_violates_large_gamma_clean(self):
        # empirical gamma scan on one coupled instance
        counts = {}
        for gamma in (1.0, 100.0):
            cfg = ExperimentConfig(seed=3, m=2, order_range=(2, 2), gamma=gamma,
                                   noise_std=0.0, samples=300, mode="distributed")
            res = run_experiment(cfg, monitor=True)
            counts[gamma] = len(res.distributed.monitor.violations)
        assert counts[100.0] == 0
        assert counts[1.0] > counts[100.0]

    def test_empty_trace_rejected(self):
        from misoid.lyapunov import RunTrace, check_trajectory

        state = from_scratch_init(2, 1.0)
        trace = RunTrace(errors=state.theta_hat[None, :] - np.zeros(2),
                         phis=np.zeros((0, 2)), alphas=np.zeros(0), noise_var=1.0,
                         info0=state.info_mat, weights=np.ones(1), offsets=np.array([0, 2]))
        with pytest.raises(ParameterError):
            check_trajectory(trace, "central")


class TestInvariants:
    def test_lower_bound_property(self):
        # W(err, k) >= lambda_min(info(0)) * ||err||^2 along a run
        cfg = ExperimentConfig(seed=6, m=2, order_range=(1, 2),
                               noise_std=0.0, samples=200, mode="distributed")
        res = run_experiment(cfg, monitor=True)
        lam0 = 1.0 / cfg.init_c
        norms = res.distributed.err_norm_sq
        for rec, nsq in zip(res.distributed.monitor.records[1:], norms[:-1]):
            assert rec.w >= lam0 * nsq - 1e-12

    def test_monotone_information(self):
        rng = np.random.default_rng(31)
        state = from_scratch_init(3, 10.0, noise_var=0.25)
        prev = state.info_mat
        for _ in range(30):
            state = rls_update(state, rng.normal(size=3), rng.normal())
            eig = np.linalg.eigvalsh(state.info_mat - prev)
            assert eig.min() > -1e-12
            prev = state.info_mat

    def test_orthogonality_detection_is_scale_invariant(self):
        phi = np.array([1.0, 1.0])
        err = np.array([1.0, -1.0])
        assert is_orthogonal(phi * 1e8, err * 1e-8)
        assert not is_orthogonal(phi, np.array([1.0, 0.0]))


def _oracle_setup(seed, gamma, mode, sigma=0.0):
    cfg = ExperimentConfig(seed=seed, m=3, order_range=(1, 3), gamma=gamma,
                           noise_std=sigma, samples=150, mode=mode)
    system = random_system(cfg)
    inputs, noise = generate_signals(system, cfg)
    return cfg, system, inputs, noise


def _assert_same_monitor(got, ref):
    """Same flags and bound decisions at every step, W to 1e-9 where resolvable."""
    assert len(got) == len(ref)
    for k, (g, r) in enumerate(zip(got, ref)):
        assert g.violation_flag == r["violation"], k
        assert g.orthogonal_flag == r["orthogonal"], k
        if r["w"] > 1e-10:
            assert g.w == pytest.approx(r["w"], rel=1e-9), k
        if "bound" in r:
            assert np.isinf(g.gamma_bound) == np.isinf(r["bound"]), k
            assert (g.overline_delta_w < 0 and np.isinf(g.gamma_bound)) == r["degenerate"], k
            certified = np.isfinite(r["bound"]) and g.gamma_sum < r["bound"]
            assert (np.isfinite(g.gamma_bound) and g.gamma_sum < g.gamma_bound) == certified, k


class TestMonitorOracle:
    """The kernel post-pass against records built from protocol snapshots.

    The references are the gain-matrix forms: w_quadratic on the stacked
    information matrix, overline_delta_w_b, gamma_sufficiency_bound with the
    dense F and phi_B, and delta_w_central_general.
    """

    @pytest.mark.parametrize("seed", [2, 3, 5, 11])
    @pytest.mark.parametrize("gamma", [1.0, 100.0])
    def test_distributed_matches_protocol_snapshots(self, seed, gamma):
        cfg, system, inputs, noise = _oracle_setup(seed, gamma, "distributed")
        theta_true = system.theta_true()
        nodes = init_nodes(system.orders, cfg.init_c, gamma)
        center = FusionCenter(noise_var=0.0, m=system.m)
        bank = RegressorBank.for_system(system)
        ref = []
        blk = stack(nodes)
        for k in range(cfg.samples):
            bank = push_inputs(bank, inputs[k])
            phi = bank.stacked()
            nodes, tr = run_round(nodes, center, bank, float(phi @ theta_true), k=k)
            blk_next = stack(nodes)
            err, alpha = blk.theta - theta_true, tr.down.alpha
            w = w_quadratic(err, blk.info_b)
            dw = w_quadratic(blk_next.theta - theta_true, blk_next.info_b) - w
            odw = overline_delta_w_b(err, phi, blk.sigma_b, alpha)
            bound = np.inf
            if odw < 0:
                f_mat = np.eye(blk.n) - alpha * blk.sigma_b @ np.outer(phi, phi)
                bound = gamma_sufficiency_bound(err, f_mat, blk.phi_b(phi), odw)
            ref.append({"w": w, "violation": dw > VIOLATION_TOL,
                        "orthogonal": is_orthogonal(phi, err), "bound": bound,
                        "degenerate": odw < 0 and np.isinf(bound)})
            blk = blk_next
        got = run_distributed(system, inputs, noise, cfg, monitor=True).monitor.records
        _assert_same_monitor(got, ref)
        if gamma == 1.0:
            assert any(r["violation"] for r in ref)

    @pytest.mark.parametrize("seed", [2, 3, 5, 11])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_central_matches_rls_states(self, seed, sigma):
        cfg, system, inputs, noise = _oracle_setup(seed, 100.0, "central", sigma)
        theta_true = system.theta_true()
        phis = build_regressors(system, inputs)
        ys = outputs_from_regressors(system, phis, noise)
        state = from_scratch_init(system.n, cfg.init_c, noise_var=sigma**2, mode="gamma")
        ref, closed = [], []
        for k in range(cfg.samples):
            phi = phis[k]
            new = rls_update_gamma(state, phi, ys[k], cfg.gamma)
            err = state.theta_hat - theta_true
            w = w_quadratic(err, state.info_mat)
            dw = w_quadratic(new.theta_hat - theta_true, new.info_mat) - w
            closed.append(delta_w_central_general(err, phi, state.sigma_mat, sigma**2,
                                                  1.0 / cfg.gamma**2))
            ref.append({"w": w, "violation": dw > VIOLATION_TOL,
                        "orthogonal": is_orthogonal(phi, err)})
            state = new
        got = run_central(system, inputs, noise, cfg, monitor=True).monitor.records
        _assert_same_monitor(got, ref)
        scale = max(abs(c) for c in closed)
        for g, c in zip(got, closed):
            assert g.delta_w_closed == pytest.approx(c, rel=1e-9, abs=1e-12 * scale)
