import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from misoid import experiment, kernels, lyapunov
from misoid.csvcolumns import CSV_BLOCK, RowWriter, first_crossing, write_csv_rows
from misoid.errors import NumericError, ParameterError
from misoid.experiment import (
    ExperimentConfig,
    Trajectory,
    build_regressors,
    generate_signals,
    monte_carlo_distributed,
    outputs_from_regressors,
    random_system,
    read_trajectory_csv,
    run_central,
    run_distributed,
    run_experiment,
    write_trajectory_csv,
)
from misoid.fir import FirModule, MisoSystem, block_offsets


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

        system = MisoSystem((FirModule(np.ones(5)), FirModule(np.ones(1))))
        inputs = np.arange(6.0).reshape(3, 2)
        phis = build_regressors(system, inputs)
        bank = RegressorBank.for_system(system)
        for t in range(3):
            bank = push_inputs(bank, inputs[t])
            assert np.array_equal(phis[t], bank.stacked())


class TestOutputs:
    @pytest.mark.parametrize("m, order_range", [(3, (1, 3)), (20, (1, 10)), (1000, (1, 3))],
                             ids=["m3", "m20", "m1000"])
    def test_a_row_does_not_depend_on_its_call(self, m, order_range):
        # a streamed run computes its outputs a chunk of rows at a time
        system = random_system(ExperimentConfig(seed=7, m=m, order_range=order_range))
        inputs, noise = generate_signals(system, ExperimentConfig(seed=1, samples=300))
        phis = build_regressors(system, inputs)
        whole = outputs_from_regressors(system, phis, noise)
        for k in range(len(phis)):
            single = outputs_from_regressors(system, phis[k:k + 1], noise[k:k + 1])
            assert single.tobytes() == whole[k:k + 1].tobytes()
        for rows in (2, 5, 65, 129):
            for start in (0, 3, 100):
                part = slice(start, start + rows)
                got = outputs_from_regressors(system, phis[part], noise[part])
                assert got.tobytes() == whole[part].tobytes()


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

        monkeypatch.setattr(lyapunov.Monitor, "advance", monitor_must_not_run)
        system = MisoSystem((FirModule([1e200, -1e200]), FirModule([1e200])))
        cfg = ExperimentConfig(noise_std=0.0, samples=20)
        inputs, noise = generate_signals(system, cfg)
        with pytest.raises(NumericError, match=f"^{mode} run: .* overflows at step 0$"):
            run(system, inputs, noise, cfg, monitor=True)


    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitored"])
    def test_one_draw_of_signals_per_experiment(self, monkeypatch, monitor, sigma):
        cfg = ExperimentConfig(seed=9, m=3, order_range=(1, 4), noise_std=sigma, samples=120)
        system = random_system(cfg)
        calls = []
        build = experiment.build_regressors
        monkeypatch.setattr(experiment, "build_regressors",
                            lambda *args: calls.append(args) or build(*args))
        res = run_experiment(cfg, system, monitor=monitor)
        assert len(calls) == 1
        monkeypatch.undo()
        inputs, noise = generate_signals(system, cfg)
        for got, ref in ((res.central, run_central(system, inputs, noise, cfg, monitor)),
                         (res.distributed, run_distributed(system, inputs, noise, cfg, monitor))):
            for name in ("errors", "eps", "alpha", "err_norm_sq"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            if monitor:
                assert got.monitor.records.tobytes() == ref.monitor.records.tobytes()
            else:
                assert got.monitor is None and ref.monitor is None


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
                phis, ys, np.zeros(system.n), cfg.init_c,
                block_offsets(system.orders), np.full(system.m, cfg.gamma), cfg.noise_std**2,
            )[0]
            assert np.allclose(finals[r], theta_hist[-1], rtol=1e-10, atol=0)


def _run_distributed_on_signals(system, cfg):
    return run_distributed(system, *generate_signals(system, cfg), cfg)


def _run_distributed_monitored(system, cfg):
    cfg = replace(cfg, noise_std=0.0)
    return run_distributed(system, *generate_signals(system, cfg), cfg, monitor=True)


@pytest.mark.parametrize("run", [_run_distributed_on_signals, monte_carlo_distributed,
                                 _run_distributed_monitored],
                         ids=["run_distributed", "monte_carlo_distributed",
                              "monitored_run_distributed"])
def test_distributed_paths_hold_no_n_by_n_array(run):
    # 3000 order-1 modules: one n x n float64 array alone would be 72 MB
    rng = np.random.default_rng(0)
    system = MisoSystem(tuple(FirModule(rng.normal(size=1)) for _ in range(3000)))
    cfg = ExperimentConfig(seed=1, samples=20, mode="distributed", monte_carlo_runs=2)
    tracemalloc.start()
    try:
        run(system, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < system.n**2 * 8 / 2


def _stress_floats(case):
    """About 30 000 to 80 000 floats that stress one step of write_csv_rows' formatter."""
    rng = np.random.default_rng(25)
    if case == "random_bits":  # every exponent, both signs, NaN payloads
        return rng.integers(0, 2**64, size=60_000, dtype=np.uint64).view(np.float64)
    if case == "powers_of_ten":
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        return np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf)])
    if case == "exact_ties":
        # m * 2**-t with m odd below 2**53 and m * 5**t of 18 digits: the
        # decimal expansion ends in a 5 just after the 17th digit
        ties = []
        for t in range(2, 26):
            lo, hi = -(-10**17 // 5**t), min(10**18 // 5**t, 2**53)
            m = rng.integers(lo, hi, size=800) | 1
            ties.append(m[m < hi] / 2.0**t)
        ties = np.concatenate(ties)
        return np.concatenate([ties, -ties, np.nextafter(ties, np.inf),
                               np.nextafter(ties, -np.inf)])
    if case == "short_decimals":  # integers, halves and decimals of up to 6 places
        ints = np.arange(-5000, 5000, dtype=float)
        decimals = rng.integers(-10**6, 10**6, size=20_000) / 10.0 ** rng.integers(0, 7, 20_000)
        return np.concatenate([ints, ints / 2, decimals])
    if case == "notation_switches":  # %g's fixed/exponent edges, 3-digit exponents
        exps = np.array([-6, -5, -4, -3, 15, 16, 17, 18, -101, -100, -99, 99, 100, 101,
                         -251, -250, -249, 249, 250, 251])
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e100, 1e-250, 1e250])
        return np.concatenate([rng.uniform(1, 10, 20_000) * 10.0 ** rng.choice(exps, 20_000),
                               edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    sub = rng.integers(1, 2**52, size=5000, dtype=np.uint64).view(np.float64)  # subnormals
    return np.concatenate([sub, -sub, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])


class TestTrajectoryCsv:
    def test_empty_trajectory_header_only(self, tmp_path):
        traj = Trajectory(mode="central", errors=np.zeros((0, 3)),
                          eps=np.zeros(0), alpha=np.zeros(0), err_norm_sq=np.zeros(0))
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
        "k,err_norm_sq,eps\n0,1.0,x\n",
        "k,err_norm_sq\n0,1.0\n1,x\n2\n",
        "k,err_norm_sq\n0,1_0\n",
        "k,err_norm_sq\n0,\u0661\n",
        "k,err_norm_sq\n0,0x10\n",
        "k,err_norm_sq,err_norm_sq\n0,1.0,2.0\n",
    ], ids=["empty", "ragged", "non-numeric", "more-fields-than-header", "non-numeric-eps",
            "two-defects", "underscore", "arabic-indic-digit", "hex", "repeated-name"])
    def test_malformed_csv_names_the_file(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ParameterError, match="bad.csv"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("names", [None, ["eps"]], ids=["all", "one"])
    def test_non_number_names_file_line_and_column(self, tmp_path, names):
        # the blank line is skipped by the parser but counted as a file line
        path = tmp_path / "b.csv"
        path.write_text("k,err_norm_sq,eps\n0,1.0,0\n\n1,0.5,x\n")
        with pytest.raises(ParameterError) as info:
            read_trajectory_csv(path, names)
        assert str(info.value) == f"{path}: line 4, column 'eps': 'x' is not a number"

    @pytest.mark.parametrize("names", [None, ["err_norm_sq"]], ids=["all", "one"])
    def test_first_defect_in_file_order_is_named(self, tmp_path, names):
        # the bad number on line 3 comes before the short row on line 4, and
        # before a byte that is not UTF-8 on line 5, in the same decoded chunk
        for content in [b"k,err_norm_sq\n0,1.0\n1,x\n2\n",
                        b"k,err_norm_sq\n0,1.0\n1,x\n2,0.5\n3,\377\n"]:
            path = tmp_path / "two.csv"
            path.write_bytes(content)
            with pytest.raises(ParameterError) as info:
                read_trajectory_csv(path, names)
            assert str(info.value) == f"{path}: line 3, column 'err_norm_sq': 'x' is not a number"

    @pytest.mark.parametrize("names", [None, ["err_norm_sq"]], ids=["all", "one"])
    def test_undecodable_byte_names_its_file_line(self, tmp_path, names):
        # far past the reader's first decoded chunk, in eps, which a read of
        # err_norm_sq alone does not parse but must still reject
        lines = [b"k,err_norm_sq,eps\n"] + [b"%d,1.0,0\n" % k for k in range(3000)]
        lines[1918] = lines[1918][:-2] + b"\xff\n"  # file line 1919
        path = tmp_path / "ff.csv"
        path.write_bytes(b"".join(lines))
        assert len(b"".join(lines[:1918])) > 16384
        with pytest.raises(ParameterError) as info:
            read_trajectory_csv(path, names)
        assert str(info.value) == f"{path}: line 1919 has byte 0xff, which is not UTF-8"

    def test_undecodable_byte_in_header_names_line_1(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_bytes(b"k,err_\xe9\n0,1.0\n")
        with pytest.raises(ParameterError) as info:
            read_trajectory_csv(path)
        assert str(info.value) == f"{path}: line 1 has byte 0xe9, which is not UTF-8"

    @pytest.mark.parametrize("names", [None, ["err_norm_sq"]], ids=["all", "one"])
    def test_ragged_row_names_line_and_field_counts(self, tmp_path, names):
        # 2 commas over 2 rows of 2 fields: only a per-row count sees the bad rows
        path = tmp_path / "bad.csv"
        path.write_text("k,err_norm_sq\n0,1.0,2\n1\n")
        with pytest.raises(ParameterError) as info:
            read_trajectory_csv(path, names)
        assert str(info.value) == f"{path}: line 2 has field count 3, the header 2"

    def test_named_columns_skip_unread_fields(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text("k,err_norm_sq,eps\n0,1.0,x\n1,0.5,\n")
        cols = read_trajectory_csv(path, ["err_norm_sq"])
        assert list(cols) == ["err_norm_sq"]
        assert cols["err_norm_sq"].tolist() == [1.0, 0.5]
        with pytest.raises(ParameterError, match="dirty.csv has no column 'W'"):
            read_trajectory_csv(path, ["W"])

    @pytest.mark.parametrize("names", [None, ["x"]], ids=["all", "one"])
    def test_edge_floats_round_trip_bit_for_bit(self, tmp_path, names):
        big = np.finfo(float).max
        values = np.array([-0.0, 0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf, np.nan])
        path = tmp_path / "edge.csv"
        write_csv_rows(path, ["k", "x"], [np.arange(values.size), values])
        cols = read_trajectory_csv(path, names)
        assert cols["x"].tobytes() == values.tobytes()  # sign of zero and NaN bits too
        if names is None:
            assert np.array_equal(cols["k"], np.arange(values.size))

    @pytest.mark.parametrize("case", ["random_bits", "powers_of_ten", "exact_ties",
                                      "short_decimals", "notation_switches", "specials"])
    def test_writer_bytes_equal_python_percent(self, tmp_path, case):
        values = _stress_floats(case)
        rows = values.size // 3
        block = values[:3 * rows].reshape(rows, 3)
        ints = np.random.default_rng(3).integers(-2**53, 2**53, rows, endpoint=True)
        ints[:4] = -2**53, 2**53, 0, -1  # the writer's integers are exact up to 2**53
        steps = np.arange(rows) + 10**6 - rows // 2  # a step index running past 10**6
        both = np.arange(rows) % 2 == 0  # a flag holding both values
        columns = [np.arange(rows), block, block[:, 0] > 0, ints, block[:, 1], steps, both]
        header = ["k", "a", "b", "c", "flag", "int", "d", "step", "both"]
        path = tmp_path / "stress.csv"
        slow = write_csv_rows(path, header, columns)
        flat = [columns[0], *block.T, *columns[2:]]
        row_fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in flat)
        expected = [",".join(header), *(row_fmt % row for row in zip(*(c.tolist() for c in flat)))]
        assert path.read_text().split("\n") == [*expected, ""]  # lines: a short report
        if case == "exact_ties":  # every tie is left to Python's %
            assert slow >= values.size // 2
        if case == "short_decimals":
            assert slow == 0

    @pytest.mark.parametrize("piece", [1, 7, 71, 512, None], ids=lambda p: f"piece{p or 'all'}")
    @pytest.mark.parametrize("width", [1, 3, 115, CSV_BLOCK + 5])
    def test_writer_geometry(self, tmp_path, width, piece):
        # rows appended in pieces, over blocks of many rows or one row each,
        # give the bytes of one write_csv_rows call and of Python's %; each
        # row ends in a tie, which % formats, before its newline
        rows = CSV_BLOCK // width * 2 + 3  # two full blocks and part of a third
        rng = np.random.default_rng(width)
        kinds = [rng.uniform(1e-4, 1, 4000),  # 0.000ddd
                 rng.uniform(1, 10, 4000) * 10.0 ** rng.choice([-300, -20, -5, 17, 40, 300], 4000),
                 rng.uniform(0, 1e6, 4000),  # point within the digits
                 rng.integers(-10**6, 10**6, 4000).astype(float),
                 np.array([0.0, -0.0, np.inf, -np.inf, np.nan])]
        pool = np.concatenate(kinds)
        pool *= rng.choice([-1.0, 1.0], pool.size)
        values = rng.choice(pool, (rows, width))
        ties = _stress_floats("exact_ties")
        values[:, -1] = rng.choice(ties[:ties.size // 2], rows)  # the ties and their negatives
        header = [f"c{j}" for j in range(width)]
        path, whole = tmp_path / "pieces.csv", tmp_path / "whole.csv"
        with open(path, "wb") as fh:
            writer = RowWriter(fh, header)
            for start in range(0, rows, piece or rows):
                writer.append([values[start:start + (piece or rows)]])
            writer.flush()
        assert write_csv_rows(whole, header, [values]) == writer.slow >= rows
        expected = "".join(",".join(["%.17g"] * width) % tuple(row) + "\n" for row in values.tolist())
        assert path.read_bytes() == whole.read_bytes() == (",".join(header) + "\n" + expected).encode()

    def test_writer_without_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv_rows(path, ["k", "x", "f"], [np.arange(0), np.zeros((0, 1)),
                                                     np.zeros(0, dtype=bool)]) == 0
        assert path.read_text() == "k,x,f\n"

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
        some = read_trajectory_csv(path, ["alpha", "err_1"])
        assert list(some) == ["alpha", "err_1"]
        for name, col in some.items():
            assert np.array_equal(col, cols[name]), name

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
            ExperimentConfig(order_range=(3, 2))
        with pytest.raises(ParameterError):
            ExperimentConfig(gamma=0.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(mode="parallel")

    @pytest.mark.parametrize("field, value, need", [
        ("seed", -1, "seed >= 0"),
        ("m", 0, "m >= 1"),
        ("samples", -1, "samples >= 0"),
        ("monte_carlo_runs", -2, "monte_carlo_runs >= 0"),
        ("order_range", (0, 3), "1 <= lo <= hi"),
        ("order_range", (4, 3), "1 <= lo <= hi"),
    ])
    def test_refusal_names_the_bad_value(self, field, value, need):
        with pytest.raises(ParameterError) as info:
            ExperimentConfig(**{field: value})
        assert str(info.value) == f"{field}={value!r} is out of range: need {need}"

    @pytest.mark.parametrize("name", ["gamma", "init_c", "noise_std", "param_std"])
    def test_scale_needs_a_finite_reciprocal_square(self, name):
        # 1e-160^2 = 1e-320 is a positive float, but 1 / 1e-320 overflows
        with pytest.raises(ParameterError, match=rf"^{name}=1e-160 .* 1/{name}\^2 < inf$"):
            ExperimentConfig(**{name: 1e-160})
        assert getattr(ExperimentConfig(**{name: 1e-150}), name) == 1e-150


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
