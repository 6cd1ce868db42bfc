"""Smoke test of the benchmark harness at its tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced and once traced; every metric named in
BENCHMARK.json must be printed with its unit and every output check must
pass.  A copy holding only BENCHMARK.json and bench/ must fail cleanly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_every_check_passes(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["bench_env"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, env["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for key in ("python", "numpy", "blas_threads", "nproc", "git_commit"):
        assert env[key] is not None, key
    if env["pin"] is not None:
        assert [env["stream_sha256"], env["outputs_sha256"]] == env["pin"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["simulate.replay_mismatches"] == 0
        assert metrics["ops_failed_frac"] == 0
        assert metrics["config.build_ms"] > 0
        assert metrics["lp.solve_calls"] >= 1
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
