"""Smoke tests of the benchmark itself.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("enumeration.walks_counted", "lattice.walks_built",
                "analysis.exact_evals", "analysis.float_evals")


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_tiny_without_errors(workload):
    result = result_line(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_and_raising_request_count_as_errors():
    requests = workloads.generate("count-deep", 3, "tiny")
    requests.append({"name": "bad", "kind": "count", "fn": "count_saws", "strip": [0, 1], "n": -1})
    records = workloads.run(requests)
    assert oracle.check(records) == 1  # the request that raised
    saws = next(r for r in records if r["req"]["fn"] == "count_saws" and r["error"] is None)
    saws["output"] = saws["output"][:-1] + (saws["output"][-1] + 1,)
    assert oracle.check(records) == 2


def test_traced_runs_repeat_exact_counts():
    first, second = (result_line(run_bench("cli-session", trace=1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("count-deep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
