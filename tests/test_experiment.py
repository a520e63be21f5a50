import numpy as np
import pytest

from misoid import experiment, kernels
from misoid.errors import NumericError, ParameterError
from misoid.experiment import (
    ExperimentConfig,
    Trajectory,
    block_offsets,
    build_regressors,
    first_crossing,
    generate_signals,
    monte_carlo_distributed,
    random_system,
    read_trajectory_csv,
    run_central,
    run_distributed,
    run_experiment,
    write_trajectory_csv,
)
from misoid.fir import FirModule, MisoSystem


class TestRandomSystem:
    def test_large_scale_constraints(self):
        cfg = ExperimentConfig(seed=0, m=20, order_range=(1, 10))
        system = random_system(cfg)
        assert system.m == 20
        assert all(1 <= o <= 10 for o in system.orders)
        assert system.n == sum(system.orders)

    def test_degenerate_order_range(self):
        cfg = ExperimentConfig(seed=1, m=4, order_range=(1, 1))
        system = random_system(cfg)
        assert system.orders == (1, 1, 1, 1)
        assert system.n == 4

    def test_same_seed_bit_exact(self):
        cfg = ExperimentConfig(seed=42, m=5, order_range=(1, 6))
        a, b = random_system(cfg), random_system(cfg)
        assert a.orders == b.orders
        for ma, mb in zip(a.modules, b.modules):
            assert ma.coeffs.tobytes() == mb.coeffs.tobytes()


class TestSignals:
    def test_zero_sigma_noise_exactly_zero(self):
        cfg = ExperimentConfig(seed=0, noise_std=0.0, samples=50)
        system = random_system(cfg)
        _, noise = generate_signals(system, cfg)
        assert np.all(noise == 0.0)

    def test_noise_sample_mean_within_standard_error(self):
        n_samples = 100_000
        cfg = ExperimentConfig(seed=3, noise_std=0.1, samples=n_samples)
        system = random_system(cfg)
        _, noise = generate_signals(system, cfg)
        # 4 sigma / sqrt(N) bound
        assert abs(noise.mean()) < 4 * 0.1 / np.sqrt(n_samples)

    def test_same_seed_identical_signals(self):
        cfg = ExperimentConfig(seed=9, samples=100)
        system = random_system(cfg)
        u1, v1 = generate_signals(system, cfg)
        u2, v2 = generate_signals(system, cfg)
        assert u1.tobytes() == u2.tobytes()
        assert v1.tobytes() == v2.tobytes()


class TestRegressors:
    def test_matches_push_based_bank(self):
        from misoid.fir import RegressorBank, push_inputs

        cfg = ExperimentConfig(seed=4, m=3, order_range=(1, 4), samples=12)
        system = random_system(cfg)
        inputs, _ = generate_signals(system, cfg)
        phis = build_regressors(system, inputs)
        bank = RegressorBank.for_system(system)
        for t in range(12):
            bank = push_inputs(bank, inputs[t])
            assert np.allclose(phis[t], bank.stacked())

    def test_fewer_samples_than_taps(self):
        from misoid.fir import FirModule, MisoSystem, RegressorBank, push_inputs

        system = MisoSystem((FirModule(np.ones(5)), FirModule(np.ones(1))), noise_std=0.0)
        inputs = np.arange(6.0).reshape(3, 2)
        phis = build_regressors(system, inputs)
        bank = RegressorBank.for_system(system)
        for t in range(3):
            bank = push_inputs(bank, inputs[t])
            assert np.array_equal(phis[t], bank.stacked())


class TestRunExperiment:
    def test_large_scale_trend(self):
        cfg = ExperimentConfig(seed=0, m=20, order_range=(1, 10), noise_std=0.1,
                               gamma=100.0, init_c=100.0, samples=1500, mode="both")
        res = run_experiment(cfg)
        for traj in (res.central, res.distributed):
            norms = traj.err_norm_sq
            assert norms[-1] < 0.1 * norms[0]

    def test_noise_free_central_exact_recovery(self):
        cfg = ExperimentConfig(seed=1, m=2, order_range=(2, 2), noise_std=0.0,
                               samples=200, mode="central")
        res = run_experiment(cfg)
        assert res.central.final_err_norm_sq() < 1e-10

    def test_shared_signal_fairness(self):
        cfg = ExperimentConfig(seed=2, m=2, order_range=(1, 2), noise_std=0.1,
                               samples=50, mode="both")
        res = run_experiment(cfg)
        # same signal realization: both see the same first prediction error
        assert res.central.eps[0] == pytest.approx(res.distributed.eps[0])

    def test_noise_free_distributed_convergence_small(self):
        cfg = ExperimentConfig(seed=3, m=3, order_range=(1, 2), noise_std=0.0,
                               samples=2000, mode="distributed")
        res = run_experiment(cfg)
        assert res.distributed.final_err_norm_sq() < 1e-8

    def test_reproducibility_full_pipeline(self):
        cfg = ExperimentConfig(seed=7, m=2, order_range=(1, 3), samples=100)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.central.errors.tobytes() == b.central.errors.tobytes()
        assert a.distributed.errors.tobytes() == b.distributed.errors.tobytes()

    @pytest.mark.parametrize("run, mode", [(run_central, "central"),
                                           (run_distributed, "distributed")])
    def test_overflowing_error_raises_before_the_monitor(self, monkeypatch, run, mode):
        # the estimates stay finite; only the squared estimation error overflows
        def monitor_must_not_run(*args):
            raise AssertionError("the monitor ran on an overflowed error history")

        monkeypatch.setattr(experiment, "check_trajectory", monitor_must_not_run)
        system = MisoSystem((FirModule([1e200, -1e200]), FirModule([1e200])))
        cfg = ExperimentConfig(noise_std=0.0, samples=20)
        inputs, noise = generate_signals(system, cfg)
        with pytest.raises(NumericError, match=f"^{mode} run: .* overflows at step 0$"):
            run(system, inputs, noise, cfg, monitor=True)


class TestMonteCarlo:
    def test_bias_shrinks_with_runs(self):
        cfg = ExperimentConfig(seed=11, m=2, order_range=(2, 2), noise_std=0.1,
                               samples=500, monte_carlo_runs=50)
        system = random_system(cfg)
        finals = monte_carlo_distributed(system, cfg)
        assert finals.shape == (50, system.n)
        mean = finals.mean(axis=0)
        std_err = finals.std(axis=0, ddof=1) / np.sqrt(50)
        assert np.all(np.abs(mean - system.theta_true()) < 4 * std_err + 1e-12)

    def test_fixed_inputs_fresh_noise(self):
        cfg = ExperimentConfig(seed=12, m=2, order_range=(1, 1), noise_std=0.1,
                               samples=30, monte_carlo_runs=3)
        system = random_system(cfg)
        finals = monte_carlo_distributed(system, cfg)
        # distinct noise draws give distinct trajectories
        assert not np.allclose(finals[0], finals[1])
        again = monte_carlo_distributed(system, cfg)
        assert finals.tobytes() == again.tobytes()

    def test_realization_equals_single_run_on_its_stream(self):
        cfg = ExperimentConfig(seed=13, m=3, order_range=(1, 3), noise_std=0.1,
                               samples=200, monte_carlo_runs=3)
        system = random_system(cfg)
        finals = monte_carlo_distributed(system, cfg)
        inputs, _ = generate_signals(system, cfg)
        phis = build_regressors(system, inputs)
        for r in range(3):
            rng = np.random.default_rng([cfg.seed, 3, r])
            ys = phis @ system.theta_true() + rng.normal(0.0, cfg.noise_std, size=cfg.samples)
            theta_hist = kernels.distributed_trajectory(
                phis, ys, np.zeros(system.n), cfg.init_c * np.eye(system.n),
                block_offsets(system), np.full(system.m, cfg.gamma), cfg.noise_std**2,
            )[0]
            assert np.allclose(finals[r], theta_hist[-1], rtol=1e-10, atol=0)


class TestTrajectoryCsv:
    def test_empty_trajectory_header_only(self, tmp_path):
        traj = Trajectory(mode="central", errors=np.zeros((0, 3)),
                          eps=np.zeros(0), alpha=np.zeros(0))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines == ["k,err_norm_sq,err_1,err_2,err_3,eps,alpha"]
        cols = read_trajectory_csv(path)
        assert list(cols) == lines[0].split(",")
        assert all(col.shape == (0,) for col in cols.values())

    @pytest.mark.parametrize("content", [
        "",
        "k,err_norm_sq\n0,1.0\n1\n",
        "k,err_norm_sq\n0,x\n",
        "k,err_norm_sq\n0,1.0,2.0\n1,1.0,2.0\n",
    ], ids=["empty", "ragged", "non-numeric", "more-fields-than-header"])
    def test_malformed_csv_names_the_file(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ParameterError, match="bad.csv"):
            read_trajectory_csv(path)

    def test_row_count_and_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=5, m=2, order_range=(1, 2), samples=25,
                               mode="distributed")
        res = run_experiment(cfg)
        path = tmp_path / "d.csv"
        write_trajectory_csv(res.distributed, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 25 + 1
        cols = read_trajectory_csv(path)
        assert np.array_equal(cols["err_norm_sq"], res.distributed.err_norm_sq)
        assert np.array_equal(cols["err_1"], res.distributed.errors[:, 0])
        assert np.array_equal(cols["eps"], res.distributed.eps)

    def test_monitor_columns_appended(self, tmp_path):
        cfg = ExperimentConfig(seed=5, m=2, order_range=(1, 2), noise_std=0.0,
                               samples=20, mode="distributed")
        res = run_experiment(cfg, monitor=True)
        path = tmp_path / "m.csv"
        write_trajectory_csv(res.distributed, path)
        header = path.read_text().splitlines()[0].split(",")
        for name in ("W", "deltaW", "overline_dW", "gamma_bound", "gamma_sum",
                     "orthogonal_flag", "violation_flag"):
            assert name in header


class TestConfigFile:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(order_range=(0, 3))
        with pytest.raises(ParameterError):
            ExperimentConfig(order_range=(1, 100))
        with pytest.raises(ParameterError):
            ExperimentConfig(gamma=0.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(mode="parallel")


class TestFirstCrossing:
    def test_basic(self):
        assert first_crossing([4.0, 2.0, 0.03, 0.01], 0.01) == 2

    def test_threshold_one_crosses_immediately(self):
        assert first_crossing([4.0, 5.0], 1.0) == 0

    def test_no_crossing(self):
        assert first_crossing([4.0, 3.0], 0.1) is None

    def test_empty_gives_none(self):
        assert first_crossing([], 0.1) is None

    @pytest.mark.parametrize("start", [-1.0, 0.0, np.inf, np.nan])
    def test_start_not_positive_finite_rejected(self, start):
        with pytest.raises(ParameterError, match="deltaW"):
            first_crossing([start, -2.0, -3.0], 0.01, "deltaW")
