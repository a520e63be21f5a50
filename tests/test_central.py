import warnings

import numpy as np
import pytest

from misoid.central import (
    CentralState,
    batch_lse,
    from_scratch_init,
    rls_update,
    rls_update_gamma,
    seed_from_batch,
)
from misoid.errors import DimensionError, ParameterError, SingularMatrixError


class TestBatchLse:
    def test_exact_scalar_fit(self):
        theta = batch_lse(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert theta == pytest.approx([2.0])

    def test_identity_regressors(self):
        y = np.array([3.0, -1.0, 0.5])
        assert batch_lse(np.eye(3), y) == pytest.approx(y.tolist())

    def test_noise_free_recovery(self):
        # oracle: independent dense least-squares solve
        rng = np.random.default_rng(5)
        phi_mat = rng.normal(size=(6, 3))
        theta0 = np.array([1.0, -2.0, 3.0])
        y = phi_mat @ theta0
        theta = batch_lse(phi_mat, y)
        oracle, *_ = np.linalg.lstsq(phi_mat, y, rcond=None)
        assert theta == pytest.approx(theta0.tolist(), abs=1e-10)
        assert theta == pytest.approx(oracle.tolist(), abs=1e-10)

    def test_singular_normal_equations_rejected(self):
        phi_mat = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError):
            batch_lse(phi_mat, np.array([1.0, 2.0, 3.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            batch_lse(np.eye(3), np.array([1.0, 2.0]))


class TestRlsUpdate:
    def test_scalar_hand_evaluated_step(self):
        # sigma=1, Sigma=1, theta=0, phi=1, y=1 -> alpha=0.5, theta=0.5, Sigma=0.5
        state = from_scratch_init(1, 1.0, noise_var=1.0)
        new = rls_update(state, np.array([1.0]), 1.0)
        assert new.theta_hat[0] == pytest.approx(0.5)
        assert new.sigma_mat[0, 0] == pytest.approx(0.5)
        assert new.info_mat[0, 0] == pytest.approx(2.0)

    def test_zero_regressor_is_noop(self):
        rng = np.random.default_rng(2)
        state = from_scratch_init(3, 10.0, noise_var=0.25)
        state = rls_update(state, rng.normal(size=3), 1.3)
        new = rls_update(state, np.zeros(3), 7.0)
        assert new.theta_hat == pytest.approx(state.theta_hat.tolist())
        assert np.allclose(new.sigma_mat, state.sigma_mat)

    def test_from_scratch_run_matches_batch(self):
        # near-infinite initial gain makes the recursion a batch solve
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n, n_samples = 4, 120
            phi_mat = rng.normal(size=(n_samples, n))
            y = phi_mat @ rng.normal(size=n) + 0.1 * rng.normal(size=n_samples)
            state = from_scratch_init(n, 1e6, noise_var=0.01)
            for k in range(n_samples):
                state = rls_update(state, phi_mat[k], y[k])
            full = batch_lse(phi_mat, y)
            assert state.theta_hat == pytest.approx(full.tolist(), rel=1e-8)

    def test_seeded_recursion_reproduces_batch(self):
        rng = np.random.default_rng(9)
        n, n_samples = 5, 80
        phi_mat = rng.normal(size=(n_samples, n))
        y = phi_mat @ rng.normal(size=n) + 0.1 * rng.normal(size=n_samples)
        state = seed_from_batch(phi_mat[: n + 5], y[: n + 5], 0.01)
        for k in range(n + 5, n_samples):
            state = rls_update(state, phi_mat[k], y[k])
        full = batch_lse(phi_mat, y)
        assert state.theta_hat == pytest.approx(full.tolist(), rel=1e-8)

    def test_inversion_lemma_consistency_and_spd(self):
        rng = np.random.default_rng(4)
        state = from_scratch_init(4, 100.0, noise_var=0.04)
        for k in range(60):
            state = rls_update(state, rng.normal(size=4), rng.normal())
            prod = state.info_mat @ state.sigma_mat
            assert np.linalg.norm(prod - np.eye(4)) / np.linalg.norm(np.eye(4)) < 1e-8
            assert np.allclose(state.sigma_mat, state.sigma_mat.T)
            assert np.all(np.linalg.eigvalsh(state.sigma_mat) > 0)

    def test_sigma_zero_rejected_in_sigma_mode(self):
        state = from_scratch_init(2, 1.0, noise_var=0.0)
        with pytest.raises(ParameterError):
            rls_update(state, np.ones(2), 1.0)


class TestGammaUpdate:
    def test_scalar_info_recursion(self):
        state = CentralState(
            theta_hat=np.zeros(1),
            sigma_mat=np.eye(1),
            info_mat=np.eye(1),
            noise_var=0.01,
            mode="gamma",
        )
        new = rls_update_gamma(state, np.array([1.0]), 0.0, gamma=10.0)
        assert new.info_mat[0, 0] == pytest.approx(1.01)

    def test_gamma_equal_sigma_matches_plain_update(self):
        rng = np.random.default_rng(8)
        sigma = 0.5
        a = from_scratch_init(3, 10.0, noise_var=sigma**2)
        b = from_scratch_init(3, 10.0, noise_var=sigma**2, mode="gamma")
        for _ in range(40):
            phi = rng.normal(size=3)
            y = rng.normal()
            a = rls_update(a, phi, y)
            b = rls_update_gamma(b, phi, y, gamma=sigma)
            assert b.theta_hat == pytest.approx(a.theta_hat.tolist(), rel=1e-12)
            assert np.allclose(a.sigma_mat, b.sigma_mat, rtol=1e-12)

    def test_large_scale_gamma_initial_state(self):
        state = from_scratch_init(102, 100.0, noise_var=0.01, mode="gamma")
        assert np.allclose(state.sigma_mat, 100.0 * np.eye(102))
        new = rls_update_gamma(state, np.ones(102), 1.0, gamma=100.0)
        assert np.all(np.isfinite(new.theta_hat))

    def test_invalid_gamma(self):
        state = from_scratch_init(2, 1.0)
        with pytest.raises(ParameterError):
            rls_update_gamma(state, np.ones(2), 1.0, gamma=0.0)


class TestInit:
    def test_default_scale_init(self):
        state = from_scratch_init(2, 100.0)
        assert np.allclose(state.sigma_mat, np.diag([100.0, 100.0]))
        assert state.theta_hat.tolist() == [0.0, 0.0]

    def test_unit_init(self):
        state = from_scratch_init(1, 1.0)
        assert state.sigma_mat[0, 0] == 1.0

    @pytest.mark.parametrize("c", [0.5, 3.0, 100.0])
    def test_info_is_reciprocal(self, c):
        state = from_scratch_init(3, c)
        assert np.allclose(state.info_mat, np.eye(3) / c)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            from_scratch_init(2, 0.0)
        with pytest.raises(ParameterError):
            from_scratch_init(0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_scale_must_be_finite(self, value):
        # NaN fails every comparison, so a bare `c <= 0` check lets it through
        with pytest.raises(ParameterError):
            from_scratch_init(3, value)
        with pytest.raises(ParameterError):
            rls_update_gamma(from_scratch_init(2, 1.0), np.ones(2), 1.0, gamma=value)
        if value == 0:
            assert from_scratch_init(3, 1.0, noise_var=value).noise_var == 0.0
        else:
            with pytest.raises(ParameterError):
                from_scratch_init(3, 1.0, noise_var=value)

    @pytest.mark.parametrize("value", [1e-320, 1e-200, 1e200])
    def test_scale_square_must_be_positive_finite(self, value):
        # 1/gamma^2 and 1/c would divide by zero or overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"\^2 < inf"):
                from_scratch_init(2, value)
            with pytest.raises(ParameterError, match=r"gamma=.*\^2 < inf"):
                rls_update_gamma(from_scratch_init(2, 1.0), np.ones(2), 1.0, gamma=value)


def test_batch_covariance_formula():
    rng = np.random.default_rng(1)
    phi_mat = rng.normal(size=(20, 3))
    cov = seed_from_batch(phi_mat, rng.normal(size=20), 0.04).sigma_mat
    assert np.allclose(cov, 0.04 * np.linalg.inv(phi_mat.T @ phi_mat))


def test_noise_free_lyapunov_value_non_increasing():
    # W_C = err' Sigma^-1 err never increases along a noise-free run
    rng = np.random.default_rng(12)
    n = 4
    theta0 = rng.normal(size=n)
    state = from_scratch_init(n, 100.0, noise_var=0.01)
    w_prev = None
    for _ in range(200):
        phi = rng.normal(size=n)
        state = rls_update(state, phi, float(phi @ theta0))
        err = state.theta_hat - theta0
        w = float(err @ state.info_mat @ err)
        if w_prev is not None:
            assert w <= w_prev + 1e-12
        w_prev = w


@pytest.mark.parametrize("start", ["scratch", "seeded"])
def test_gain_and_information_stay_exactly_symmetric(start):
    # every update entry is the same float at (a, b) and (b, a), so only the
    # batch seed, built from LAPACK inverses, needs symmetrising, once
    rng = np.random.default_rng(21)
    n, n_samples = 5, 300
    phi_mat = rng.normal(size=(n_samples, n))
    y = phi_mat @ rng.normal(size=n) + 0.1 * rng.normal(size=n_samples)
    if start == "scratch":
        state, first = from_scratch_init(n, 100.0, noise_var=0.01, mode="gamma"), 0
    else:
        state, first = seed_from_batch(phi_mat[: 2 * n], y[: 2 * n], 0.01), 2 * n
    states = [state]
    for k in range(first, n_samples):
        states.append(rls_update_gamma(states[-1], phi_mat[k], y[k], 7.0))
    for st in states:
        assert np.array_equal(st.sigma_mat, st.sigma_mat.T)
        assert np.array_equal(st.info_mat, st.info_mat.T)
