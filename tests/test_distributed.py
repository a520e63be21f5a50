import warnings

import numpy as np
import pytest

from misoid.distributed import (
    FusionCenter,
    NodeState,
    RoundMessageDown,
    RoundMessageUp,
    fuse,
    init_nodes,
    local_prediction,
    local_update,
    node_message,
    run_round,
    stack,
)
from misoid.errors import DimensionError, NumericError, ParameterError, ProtocolError
from misoid.fir import RegressorBank, push_inputs
from monitor_reference import phi_b


def _random_nodes(rng, orders, gamma=100.0):
    nodes = []
    for i, ni in enumerate(orders):
        a = rng.normal(size=(ni, ni))
        sigma = a @ a.T + ni * np.eye(ni)
        nodes.append(
            NodeState(i, rng.normal(size=ni), sigma, np.linalg.inv(sigma), gamma)
        )
    return nodes


class TestLocalPrediction:
    def test_scalar(self):
        node = NodeState(0, np.array([0.5]), np.eye(1), np.eye(1), 100.0)
        assert local_prediction(node, np.array([4.0])) == 2.0

    def test_zero_estimate(self):
        node = NodeState(0, np.zeros(3), np.eye(3), np.eye(3), 1.0)
        assert local_prediction(node, np.array([1.0, 2.0, 3.0])) == 0.0

    def test_cancellation(self):
        node = NodeState(0, np.array([1.0, 1.0]), np.eye(2), np.eye(2), 1.0)
        assert local_prediction(node, np.array([2.0, -2.0])) == 0.0

    def test_dimension_error(self):
        node = NodeState(0, np.zeros(2), np.eye(2), np.eye(2), 1.0)
        with pytest.raises(DimensionError):
            local_prediction(node, np.zeros(3))


class TestFuse:
    def test_prediction_error(self):
        center = FusionCenter(noise_var=1.0, m=2)
        ups = [RoundMessageUp(0, 0.2, 1.0), RoundMessageUp(1, 0.3, 1.0)]
        down = fuse(center, 1.0, ups)
        assert down.prediction_error == pytest.approx(0.5)

    def test_alpha_formula(self):
        center = FusionCenter(noise_var=0.01, m=2)
        ups = [RoundMessageUp(0, 0.0, 1.0), RoundMessageUp(1, 0.0, 1.0)]
        assert fuse(center, 0.0, ups).alpha == pytest.approx(1.0 / 2.01)

    def test_many_node_fusion(self):
        # m=20 nodes with sigma=0.1 as in the reference experiment setup
        center = FusionCenter(noise_var=0.1**2, m=20)
        ups = [RoundMessageUp(i, 0.1 * i, 0.5) for i in range(20)]
        down = fuse(center, 5.0, ups)
        assert down.alpha == pytest.approx(1.0 / (0.01 + 20 * 0.5))
        assert down.prediction_error == pytest.approx(5.0 - sum(0.1 * i for i in range(20)))

    def test_missing_node_rejected(self):
        center = FusionCenter(noise_var=0.01, m=3)
        ups = [RoundMessageUp(0, 0.0, 1.0), RoundMessageUp(2, 0.0, 1.0)]
        with pytest.raises(ProtocolError, match="1"):
            fuse(center, 0.0, ups)

    def test_duplicate_node_rejected(self):
        center = FusionCenter(noise_var=0.01, m=2)
        ups = [RoundMessageUp(0, 0.0, 1.0), RoundMessageUp(0, 0.0, 1.0)]
        with pytest.raises(ProtocolError):
            fuse(center, 0.0, ups)

    def test_degenerate_denominator_rejected(self):
        center = FusionCenter(noise_var=0.0, m=1)
        with pytest.raises(NumericError):
            fuse(center, 0.0, [RoundMessageUp(0, 0.0, 0.0)])


class TestLocalUpdate:
    def test_scalar_hand_evaluated(self):
        # Sigma=1, gamma=10, alpha=0.5, phi=1, eps=1
        node = NodeState(0, np.array([0.25]), np.eye(1), np.eye(1), 10.0)
        new = local_update(node, np.array([1.0]), RoundMessageDown(1.0, 0.5))
        assert new.theta_hat[0] == pytest.approx(0.75)
        assert new.info[0, 0] == pytest.approx(1.01)

    def test_zero_regressor_is_noop(self):
        node = NodeState(0, np.array([1.0, 2.0]), 3.0 * np.eye(2), np.eye(2) / 3.0, 10.0)
        new = local_update(node, np.zeros(2), RoundMessageDown(1.0, 0.5))
        assert new.theta_hat.tolist() == [1.0, 2.0]
        assert np.allclose(new.sigma, node.sigma)

    def test_zero_innovation_freezes_estimate_not_gain(self):
        node = NodeState(0, np.array([1.0]), np.eye(1), np.eye(1), 10.0)
        new = local_update(node, np.array([2.0]), RoundMessageDown(0.0, 0.5))
        assert new.theta_hat[0] == 1.0
        assert new.info[0, 0] == pytest.approx(1.04)

    def test_gain_inverse_pair_stays_consistent(self):
        rng = np.random.default_rng(6)
        node = init_nodes([3], 100.0, 50.0)[0]
        for _ in range(50):
            down = RoundMessageDown(rng.normal(), abs(rng.normal()) + 0.1)
            node = local_update(node, rng.normal(size=3), down)
        assert np.linalg.norm(node.info @ node.sigma - np.eye(3)) < 1e-8

    def test_gain_and_information_stay_exactly_symmetric(self):
        # each update entry is the same float at (a, b) and (b, a)
        rng = np.random.default_rng(7)
        node = init_nodes([4], 100.0, 7.0)[0]
        for _ in range(300):
            down = RoundMessageDown(rng.normal(), abs(rng.normal()) + 0.1)
            node = local_update(node, rng.normal(size=4), down)
            assert np.array_equal(node.sigma, node.sigma.T)
            assert np.array_equal(node.info, node.info.T)


class TestRunRound:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(0)
        nodes = _random_nodes(rng, [1, 1])
        center = FusionCenter(noise_var=0.01, m=2)
        bank = push_inputs(RegressorBank.zeros([1, 1]), rng.normal(size=2))
        y = 1.5
        ups = [node_message(nd, bank.windows[nd.index]) for nd in nodes]
        down = fuse(center, y, ups)
        manual = [local_update(nd, bank.windows[nd.index], down) for nd in nodes]
        got, trace = run_round(nodes, center, bank, y)
        for a, b in zip(got, manual):
            assert a.theta_hat == pytest.approx(b.theta_hat.tolist())
        assert trace.down == down

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(1)
        orders = [2, 3]
        theta_parts = [rng.normal(size=o) for o in orders]
        nodes = [
            NodeState(i, theta_parts[i].copy(), 5.0 * np.eye(o), np.eye(o) / 5.0, 100.0)
            for i, o in enumerate(orders)
        ]
        center = FusionCenter(noise_var=0.0, m=2)
        bank = push_inputs(RegressorBank.zeros(orders), rng.normal(size=2))
        y = sum(float(bank.windows[i] @ theta_parts[i]) for i in range(2))
        new_nodes, trace = run_round(nodes, center, bank, y)
        assert trace.down.prediction_error == pytest.approx(0.0, abs=1e-14)
        for nd, truth in zip(new_nodes, theta_parts):
            assert nd.theta_hat == pytest.approx(truth.tolist())

    def test_scalar_traffic_accounting(self):
        rng = np.random.default_rng(2)
        m = 5
        nodes = _random_nodes(rng, [2] * m)
        center = FusionCenter(noise_var=0.01, m=m)
        bank = push_inputs(RegressorBank.zeros([2] * m), rng.normal(size=m))
        _, trace = run_round(nodes, center, bank, 0.3)
        assert trace.upstream_scalars == 2 * m
        assert trace.downstream_scalars == 2

    def test_node_order_permutation_bit_identical(self):
        rng = np.random.default_rng(3)
        orders = [2, 1, 3, 2]
        nodes = _random_nodes(rng, orders)
        center = FusionCenter(noise_var=0.04, m=4)
        bank = push_inputs(RegressorBank.zeros(orders), rng.normal(size=4))
        ref, _ = run_round(nodes, center, bank, 0.7)
        perm, _ = run_round([nodes[i] for i in (2, 0, 3, 1)], center, bank, 0.7)
        perm_sorted = sorted(perm, key=lambda nd: nd.index)
        for a, b in zip(ref, perm_sorted):
            assert a.theta_hat.tobytes() == b.theta_hat.tobytes()
            assert a.sigma.tobytes() == b.sigma.tobytes()


class TestStack:
    def test_blockdiag_scalar_gains(self):
        nodes = [
            NodeState(0, np.array([1.0]), 2.0 * np.eye(1), np.eye(1) / 2.0, 10.0),
            NodeState(1, np.array([2.0]), 3.0 * np.eye(1), np.eye(1) / 3.0, 10.0),
        ]
        blk = stack(nodes)
        assert np.allclose(blk.sigma_b, np.diag([2.0, 3.0]))

    def test_stacked_vector(self):
        nodes = [
            NodeState(0, np.array([1.0]), np.eye(1), np.eye(1), 10.0),
            NodeState(1, np.array([2.0, 3.0]), np.eye(2), np.eye(2), 10.0),
        ]
        assert stack(nodes).theta.tolist() == [1.0, 2.0, 3.0]

    def test_off_diagonal_blocks_exactly_zero(self):
        rng = np.random.default_rng(4)
        blk = stack(_random_nodes(rng, [2, 3]))
        assert np.all(blk.sigma_b[:2, 2:] == 0.0)
        assert np.all(blk.sigma_b[2:, :2] == 0.0)

    def test_phi_b_blockdiag_structure(self):
        rng = np.random.default_rng(5)
        blk = stack(_random_nodes(rng, [2, 2]))
        phi = rng.normal(size=4)
        blocks = phi_b(blk, phi)
        assert np.allclose(blocks[:2, :2], np.outer(phi[:2], phi[:2]))
        assert np.all(blocks[:2, 2:] == 0.0)


class TestStackedOracle:
    def test_round_equals_dense_stacked_update(self):
        # dense oracle: theta+ = theta + alpha * Sigma_B phi * eps
        rng = np.random.default_rng(10)
        for trial in range(25):
            m = int(rng.integers(1, 5))
            orders = [int(rng.integers(1, 4)) for _ in range(m)]
            nodes = _random_nodes(rng, orders)
            center = FusionCenter(noise_var=0.01, m=m)
            bank = push_inputs(RegressorBank.zeros(orders), rng.normal(size=m))
            y = rng.normal()
            blk = stack(nodes)
            phi = bank.stacked()
            eps = y - float(phi @ blk.theta)
            alpha = 1.0 / (0.01 + float(phi @ blk.sigma_b @ phi))
            expected = blk.theta + alpha * (blk.sigma_b @ phi) * eps
            new_nodes, trace = run_round(nodes, center, bank, y)
            got = np.concatenate([nd.theta_hat for nd in new_nodes])
            assert np.max(np.abs(got - expected)) < 1e-10
            assert trace.down.alpha == pytest.approx(alpha, rel=1e-12)

    def test_noise_free_error_propagation_matrix(self):
        # error propagates as F err with F = I - alpha Sigma_B phi phi'
        rng = np.random.default_rng(11)
        orders = [2, 2]
        theta_true = rng.normal(size=4)
        nodes = _random_nodes(rng, orders)
        center = FusionCenter(noise_var=0.0, m=2)
        bank = push_inputs(RegressorBank.zeros(orders), rng.normal(size=2))
        phi = bank.stacked()
        y = float(phi @ theta_true)
        blk = stack(nodes)
        new_nodes, trace = run_round(nodes, center, bank, y)
        alpha = trace.down.alpha
        f_mat = np.eye(4) - alpha * blk.sigma_b @ np.outer(phi, phi)
        err_next = np.concatenate([nd.theta_hat for nd in new_nodes]) - theta_true
        assert np.max(np.abs(err_next - f_mat @ (blk.theta - theta_true))) < 1e-10

    def test_alpha_strict_decrease_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            nodes = _random_nodes(rng, [2, 3])
            center = FusionCenter(noise_var=0.01, m=2)
            bank = push_inputs(RegressorBank.zeros([2, 3]), rng.normal(size=2))
            blk = stack(nodes)
            phi = bank.stacked()
            _, trace = run_round(nodes, center, bank, rng.normal())
            s = float(phi @ blk.sigma_b @ phi)
            assert 0.0 < trace.down.alpha < 2.0 / s


def test_init_nodes_validation():
    with pytest.raises(ParameterError):
        init_nodes([1, 2], 0.0, 100.0)
    with pytest.raises(ParameterError):
        init_nodes([1], 1.0, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_scale_must_be_finite(value):
    # NaN fails every comparison, so a bare `gamma <= 0` check lets it through
    with pytest.raises(ParameterError):
        init_nodes([1, 2], value, 100.0)
    with pytest.raises(ParameterError):
        init_nodes([1, 2], 1.0, value)
    with pytest.raises(ParameterError):
        NodeState(0, np.zeros(1), np.eye(1), np.eye(1), value)
    if value == 0:
        assert FusionCenter(value, 2).noise_var == 0.0
    else:
        with pytest.raises(ParameterError):
            FusionCenter(value, 2)


@pytest.mark.parametrize("value", [1e-320, 1e-200, 1e200])
def test_scale_square_must_be_positive_finite(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"^c=.*\^2 < inf"):
            init_nodes([1, 2], value, 100.0)
        with pytest.raises(ParameterError, match=r"^gamma\[0\]=.*\^2 < inf"):
            init_nodes([1, 2], 1.0, value)
        with pytest.raises(ParameterError, match=r"^gamma\[3\]="):
            NodeState(3, np.zeros(1), np.eye(1), np.eye(1), value)
