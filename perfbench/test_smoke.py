"""Self-test of the benchmark on tiny grids (``--smoke``).

    python3 -m pytest perfbench

Every workload must run clean, print every end-to-end metric listed in
BENCHMARK.json untraced and every per-layer metric traced, and report the
per-command times that apply to it.  A per-layer metric that applies to a
workload must be non-zero unless the hooks it is computed from are marked
absent (target gone) or idle (never called).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {
    "pde-infer": {"simulate_s", "infer_s"},
    "ode-bundle": {"infer_s", "scan_s", "mcmc_s"},
    "pde-sweep": {"sweep_s"},
}
# every workload run.py offers, pde-sweep too, which BENCHMARK.json does not gate
WORKLOADS = list(REPORTED)


def run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_result(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, detail = run("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--smoke")
    check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(detail["reported"]) == REPORTED[workload]
    assert all(m["median"] > 0 and m["n"] >= 1 for m in detail["reported"].values())
    assert detail["ops_attempted"] == result["attempted"]
    assert detail["ops_failed"] == 0
    assert detail["env"]["nproc"] >= 1 and detail["env"]["blas_threads"] <= detail["env"]["nproc"]
    assert len(detail["config_hash"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics(workload):
    result, detail = run("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "1", "--smoke")
    check_result(result, BENCH["per_layer"])
    excused = set(detail["absent_metrics"]) | set(detail["idle_metrics"])
    for name, metric in result["metrics"].items():
        if name in detail["not_applicable"]:
            assert metric["value"] == 0, name
        elif name != "trace.overhead_s" and name not in excused:
            assert metric["value"] > 0, name
    assert detail["trace_hashes_match"] is True
    assert min(detail["coverage"].values()) >= 0.9


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
