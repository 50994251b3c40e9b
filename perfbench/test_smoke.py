"""Smoke test: every workload, untraced and traced, at the small input size.

    python3 -m pytest perfbench/test_smoke.py

Each run checks its outputs as a full run does; the test asserts the result
line's shape and metric names against BENCHMARK.json.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["h4_chain", "dense_analysis", "h4h5_fit"])
def test_workload_runs_and_checks(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1, proc.stderr
    # the H4 fit exits 4 in every pass (see workloads.H4H5Fit); nothing else may fail
    known = (["check failed: fit-h4: exit code 4"] * (result["attempted"] // 2)
             if workload == "h4h5_fit" else [])
    failures = [line for line in proc.stderr.splitlines() if line.startswith("check failed:")]
    assert result["failed"] == len(known) and failures == known, proc.stderr[-3000:]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, tmp_path / HERE.name / "run.py", "h4_chain", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
