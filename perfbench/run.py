"""misoid benchmark: closed-loop CLI and library workloads with checked outputs.

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
One driver process runs one child process at a time.  After the references
are computed and one warm-up iteration is discarded, it repeats rounds until
``--seconds`` have passed; ``--workload all`` runs every workload
round-robin.  With ``--trace 0`` a round is two set-up children and one
iteration, and the end-to-end metrics are printed.  With ``--trace 1``
rounds alternate between untraced and traced iterations, and the per-layer
metrics are printed.  The last line of stdout is one JSON object; the
result file (environment, spreads, problems) and the spans go to
``.perfbench_out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150.0
SETUPS_PER_ROUND = 2
#: typical time of the calibration child on the development sandbox when it was quiet
CALIBRATION_REF_S = 0.30
MODULES = ("cli", "fir", "experiment", "kernels", "central", "distributed", "lyapunov")


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


@dataclass
class Iteration:
    index: int
    traced: bool
    warmup: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration time of this round
    layers: dict | None = None


@dataclass
class State:
    workload: object
    iterations: list[Iteration] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (wall, scale)
    setup_failures: int = 0
    hashes: dict | None = None
    spans: list[dict] = field(default_factory=list)


def run_child(argv, env, out_dir: Path) -> Child:
    """Run one child to completion; its rusage comes from os.wait4."""
    out_path = out_dir / "child.out"
    with open(out_path, "wb") as out, open(out_dir / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=out_path.read_text(errors="replace"),
    )


def file_hashes(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()}


def load_spans(paths, iteration: int, start: float, end: float) -> list[dict]:
    """Spans of one iteration's children under one root span for the iteration."""
    spans = [{"name": "bench.iteration", "start": start, "end": end, "parent": None,
              "iteration": iteration, "counts": {}, "failed": False}]
    for path in paths:
        if not path.exists():
            continue
        base = len(spans)
        for s in json.loads(path.read_text()):
            s["parent"] = 0 if s["parent"] is None else s["parent"] + base
            spans.append(s)
    return spans


def layer_metrics(spans: list[dict], m: int, failed_cli: int) -> tuple[dict, list[str]]:
    """Per-layer self times and counts of one traced iteration."""
    from tracing import self_times

    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    failed = defaultdict(int)
    ups, downs = set(), set()
    for span, t in zip(spans, self_times(spans)):
        name, c = span["name"], span["counts"]
        if c.get("monitor"):
            name += "[monitor]"
        self_s[name] += t
        calls[name] += 1
        for key, value in c.items():
            counts[f"{name}:{key}"] += value
        if span["failed"]:
            failed[name.split(".")[0]] += 1
        if name == "distributed.run_round":
            ups.add(c["up"])
            downs.add(c["down"])
    failed["cli"] += failed_cli

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    kc, kd = self_s["kernels.central_trajectory"], self_s["kernels.distributed_trajectory"]
    kd_steps = counts["kernels.distributed_trajectory:steps"]
    csv_w = self_s["experiment.write_trajectory_csv"]
    csv_bytes = counts["experiment.write_trajectory_csv:bytes"]
    mc = next((s["end"] - s["start"] for s in spans
               if s["name"] == "experiment.monte_carlo_distributed"), 0.0)
    mc_r = counts["experiment.monte_carlo_distributed:realizations"]
    check_s = self_s["lyapunov.check_trajectory"]
    records = counts["lyapunov.check_trajectory:records"]
    rounds = calls["distributed.run_round"]
    out = {
        "cli.import_s": self_s["cli.import"],
        "fir.load_system_s": self_s["fir.load_system"],
        "experiment.signals_s": self_s["experiment.generate_signals"],
        "experiment.regressors_s": self_s["experiment.build_regressors"],
        "kernels.central_s": kc,
        "kernels.central_us_per_step": ratio(kc, counts["kernels.central_trajectory:steps"], 1e6),
        "kernels.central_gflops": ratio(counts["kernels.central_trajectory:flops"], kc, 1e-9),
        "kernels.distributed_s": kd,
        "kernels.distributed_us_per_step": ratio(kd, kd_steps, 1e6),
        "kernels.distributed_us_per_block_step": ratio(
            kd, counts["kernels.distributed_trajectory:block_steps"], 1e6),
        "kernels.distributed_gflops": ratio(
            counts["kernels.distributed_trajectory:flops"], kd, 1e-9),
        "kernels.calls": calls["kernels.central_trajectory"]
        + calls["kernels.distributed_trajectory"],
        "experiment.csv_write_s": csv_w,
        "experiment.csv_read_s": self_s["experiment.read_trajectory_csv"],
        "experiment.csv_bytes": csv_bytes,
        "experiment.csv_write_mb_per_s": ratio(csv_bytes, csv_w, 1e-6),
        "experiment.mc_s": mc,
        "experiment.mc_s_per_realization": ratio(mc, mc_r),
        "experiment.mc_realizations": mc_r,
        "central.monitor_run_s": self_s["experiment.run_central[monitor]"]
        + self_s["central.rls_update_gamma"] + self_s["central.from_scratch_init"],
        "central.states_mb": (counts["central.rls_update_gamma:bytes"]
                              + counts["central.from_scratch_init:bytes"]) / 1e6,
        "distributed.protocol_s": self_s["experiment.run_distributed[monitor]"]
        + self_s["distributed.run_round"] + self_s["distributed.stack"]
        + self_s["distributed.init_nodes"],
        "distributed.rounds": rounds,
        "distributed.up_scalars_per_round": max(ups, default=0),
        "distributed.down_scalars_per_round": max(downs, default=0),
        "distributed.snapshots_mb": counts["distributed.stack:bytes"] / 1e6,
        "lyapunov.check_s": check_s,
        "lyapunov.records": records,
        "lyapunov.us_per_record": ratio(check_s, records, 1e6),
        "lyapunov.violations": counts["lyapunov.check_trajectory:violations"],
        "lyapunov.csv_write_s": self_s["lyapunov.write_monitor_csv"],
    }
    out.update({f"{mod}.failed_calls": failed[mod] for mod in MODULES})
    problems = []
    if rounds and (ups != {2 * m} or downs != {2}):
        problems.append(f"round traffic up={sorted(ups)} down={sorted(downs)}, "
                        f"expected up={2 * m} down=2")
    return out, problems


def run_iteration(state: State, index: int, traced: bool, warmup: bool, env) -> Iteration:
    w = state.workload
    for path in w.outputs():
        path.unlink(missing_ok=True)
    spans_dir = None
    if traced:
        spans_dir = w.work / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
    children = []
    start = time.perf_counter()
    for argv in w.commands(spans_dir, index):
        children.append(run_child(argv, env, w.work))
        if children[-1].rc != 0:
            break
    end = time.perf_counter()
    problems = [f"child {i} exited with code {c.rc}" for i, c in enumerate(children) if c.rc]
    if not problems:
        try:
            problems = w.check(children)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output check could not read the outputs: {exc!r}"]
    hashes = file_hashes(w.outputs())
    if state.hashes is None:
        state.hashes = hashes
    elif hashes != state.hashes:
        problems.append("output bytes differ from the first iteration of this session")
    it = Iteration(
        index=index, traced=traced, warmup=warmup, wall_s=end - start,
        cpu_s=sum(c.cpu_s for c in children),
        peak_rss_mb=max(c.rss_mb for c in children), problems=problems,
    )
    if traced:
        spans = load_spans(sorted(spans_dir.glob("spans-*.json")), index, start, end)
        failed_cli = sum(1 for c in children if c.rc)
        it.layers, traffic = layer_metrics(spans, w.system.m, failed_cli)
        it.problems += traffic
        state.spans.extend(spans)
    return it


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def summary(values) -> dict:
    values = list(values)
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(state: State) -> tuple[dict, dict]:
    """Times scaled to the calibration speed; the unscaled ones are kept as raw_*."""
    timed = [it for it in state.iterations if not it.warmup and not it.traced]
    spread = {
        "wall_s": summary(it.wall_s * it.scale for it in timed),
        "cpu_s": summary(it.cpu_s * it.scale for it in timed),
        "peak_rss_mb": summary(it.peak_rss_mb for it in timed),
        "setup_s": summary(wall * scale for wall, scale in state.setups),
        "raw_wall_s": summary(it.wall_s for it in timed),
        "raw_cpu_s": summary(it.cpu_s for it in timed),
        "raw_setup_s": summary(wall for wall, _ in state.setups),
        "calibration_s": summary(CALIBRATION_REF_S / it.scale for it in timed),
    }
    return {k: v["median"] for k, v in spread.items() if v["n"]}, spread


def per_layer(state: State) -> tuple[dict, dict]:
    traced = [it for it in state.iterations if it.traced and it.layers is not None]
    untraced = [it.wall_s for it in state.iterations if not it.warmup and not it.traced]
    spread = {key: summary(it.layers[key] for it in traced) for key in traced[0].layers}
    values = {k: v["median"] for k, v in spread.items()}
    tw = statistics.median(it.wall_s for it in traced)
    values["trace.overhead_frac"] = tw / statistics.median(untraced) - 1.0
    return values, spread


def failures(state: State) -> tuple[int, int]:
    """(failed, attempted): iterations with a problem, plus set-up children that failed."""
    failed = sum(1 for it in state.iterations if it.problems)
    return failed + state.setup_failures, len(state.iterations) + state.setup_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's self-test only")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the stored references; every iteration must then fail")
    args = parser.parse_args(argv)

    if not (SRC / "misoid" / "cli.py").is_file():
        print(f"error: no misoid source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    states = []
    for name in names:
        work = OUT / name
        shutil.rmtree(work, ignore_errors=True)
        w = WORKLOADS[name](args.size, work)
        w.prepare(args.seed, args.corrupt_reference)
        states.append(State(w))

    index = 0
    for state in states:
        state.iterations.append(run_iteration(state, index, False, True, env))
        index += 1
    start = time.perf_counter()
    rounds = 0
    while rounds < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace and rounds % 2)
        for state in states:
            scale = 1.0
            if not args.trace:
                work = state.workload.work
                setups = [run_child(state.workload.setup_command(), env, work)
                          for _ in range(SETUPS_PER_ROUND)]
                calibration = run_child(state.workload.calibrate_command(), env, work)
                if calibration.rc:
                    print("error: the calibration child failed", file=sys.stderr)
                    return 3
                scale = CALIBRATION_REF_S / calibration.wall_s
                state.setups += [(c.wall_s, scale) for c in setups if c.rc == 0]
                state.setup_failures += sum(1 for c in setups if c.rc)
            it = run_iteration(state, index, traced, False, env)
            it.scale = scale
            state.iterations.append(it)
            index += 1
        rounds += 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    units.setdefault("failed_frac", "fraction")
    metrics = {}
    report = {"environment": environment(), "args": vars(args), "workloads": {}}
    attempted = failed = 0
    for state in states:
        name = state.workload.name
        values, spread = per_layer(state) if args.trace else end_to_end(state)
        n_fail, n_att = failures(state)
        values["failed_frac"] = n_fail / n_att
        attempted += n_att
        failed += n_fail
        timed = sum(not it.warmup and it.traced == bool(args.trace) for it in state.iterations)
        print(f"{name}: {timed} timed iterations (+1 warm-up), {n_fail} of {n_att} failed")
        for it in state.iterations:
            for problem in it.problems:
                print(f"  iteration {it.index}: {problem}")
        for key in units:
            s = spread.get(key, {})
            quartiles = ""
            if s.get("n"):
                quartiles = f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
            print(f"  {key:40s} {values[key]:14.6g} {units[key]}{quartiles}")
        if not args.trace:
            print("  unscaled medians: " + ", ".join(
                f"{key} {values[key]:.6g} s"
                for key in ("raw_wall_s", "raw_cpu_s", "raw_setup_s", "calibration_s")))
        prefix = "" if len(states) == 1 else f"{name}."
        for key in spec[kind]:
            metrics[prefix + key["name"]] = {"value": values[key["name"]], "unit": key["unit"]}
        report["workloads"][name] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "metrics": values,
            "spread": spread,
            "iterations": [vars(it) for it in state.iterations],
            "setup_s_and_scale": state.setups,
            "output_sha256": state.hashes,
        }
        if state.spans:
            spans_path = OUT / name / "spans.json"
            spans_path.write_text(json.dumps(state.spans))
            report["workloads"][name]["spans"] = str(spans_path.relative_to(ROOT))
    result_path = OUT / f"result-{args.workload}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
