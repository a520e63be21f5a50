"""Self-test of the benchmark at tiny size; exits non-zero on any failure.

    python3 perfbench/selftest.py

1. Smoke: a tiny run of every workload, untraced and traced, prints every
   metric of BENCHMARK.json with its unit, reports no failure, and keeps
   the round traffic at 2m scalars up and 2 down.
2. Corrupting the stored references makes failed_frac 1 on every workload,
   which shows that the output checks can fail.
3. In a directory holding only BENCHMARK.json and perfbench/ the benchmark
   exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_M = 4  # modules of the tiny monitor_certify system

failures = []


def check(ok: bool, what: str):
    print(f"[selftest] {what.strip()}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(what)


def bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "all", "--seed", "7", "--seconds", "1",
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> dict[str, dict[str, tuple[float, str]]]:
    """{workload: {metric: (value, unit)}} from the human-readable lines."""
    out, current = {}, None
    for line in stdout.splitlines():
        head = re.match(r"^(\w+): \d+ timed iterations", line)
        if head:
            current = out.setdefault(head.group(1), {})
            continue
        row = re.match(r"^  ([\w.]+)\s+([-+\d.eE]+) (\S+)", line)
        if row and current is not None:
            current[row.group(1)] = (float(row.group(2)), row.group(3))
    return out


def smoke(trace: int):
    proc = bench("--trace", str(trace))
    check(proc.returncode == 0, f"trace {trace}: exit code 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"trace {trace}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"trace {trace}: every iteration correct")
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    wanted["failed_frac"] = "fraction"
    table = printed(proc.stdout)
    for w in WORKLOADS:
        got = table.get(w, {})
        missing = [k for k, unit in wanted.items() if got.get(k, (0, None))[1] != unit] or ""
        check(not missing, f"trace {trace}: {w} prints every metric with its unit {missing}")
        check(got.get("failed_frac", (1,))[0] == 0, f"trace {trace}: {w} failed_frac is 0")
        if not trace:
            zero = [m["name"] for m in SPEC["end_to_end"]
                    if not result["metrics"][f"{w}.{m['name']}"]["value"] > 0] or ""
            check(not zero, f"{w}: every end-to-end metric is above 0 {zero}")
    if trace:
        mon = table["monitor_certify"]
        check(mon["distributed.up_scalars_per_round"][0] == 2 * TINY_M
              and mon["distributed.down_scalars_per_round"][0] == 2,
              "monitor_certify: 2m scalars up and 2 down per round")
        check(mon["kernels.calls"][0] == 0, "monitor_certify: no kernel calls")
        check(table["mc_many_modules"]["kernels.central_s"][0] == 0
              and table["mc_many_modules"]["distributed.rounds"][0] == 0,
              "mc_many_modules: no central kernel and no protocol rounds")
        spans = json.loads((ROOT / ".perfbench_out" / "monitor_certify" / "spans.json").read_text())
        keys = {"name", "start", "end", "parent", "iteration"}
        check(bool(spans) and all(keys <= set(s) for s in spans),
              "spans carry name, start, end, parent and iteration id")


def corrupted():
    proc = bench("--trace", "0", "--corrupt-reference")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    table = printed(proc.stdout)
    check(not result["correct"] and result["failed"] == result["attempted"],
          "corrupted reference: every iteration fails")
    for w in WORKLOADS:
        check(table[w]["failed_frac"][0] == 1, f"corrupted reference: {w} failed_frac is 1")


def bare_directory():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without a source tree: non-zero exit and no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    smoke(0)
    smoke(1)
    corrupted()
    bare_directory()
    print(f"[selftest] {'FAILED: ' + ', '.join(failures) if failures else 'all passed'}")
    sys.exit(1 if failures else 0)
