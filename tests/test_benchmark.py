"""The benchmark still runs against the program in ``src/``.

perfbench's traced children wrap misoid's functions by name, and its
workloads call them, so a change to ``src/`` that deletes or renames one of
them fails the iterations that reach it.  This runs the benchmark's
smallest traced round on a copy of the checkout.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_traced_round_runs_every_workload_correctly(tmp_path):
    # a copy, so that the checkout's .perfbench_out/ is not overwritten
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--size", "tiny",
         "--trace", "1", "--seconds", "1", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    # the driver's last stdout line is its verdict; the result file, its details
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert verdict["failed"] == 0 and verdict["correct"] is True, done.stdout
    report = json.loads((tmp_path / ".perfbench_out" / "result-all.json").read_text())
    assert set(report["workloads"]) == {"paper_run", "monitor_certify", "mc_many_modules"}
