"""Tiny-scale smoke test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each workload runs briefly at oo7 TINY (``--smoke``), untraced and
traced.  The test checks the output contract against ``BENCHMARK.json``
(every metric present, with its unit), that every answer matched the
reference, that the deterministic counters are non-zero, and that two
traced runs with the same seed repeat them exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
SIM_WORKLOADS = {"plan-mix", "serve-churn"}


def run(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict | None]:
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    deterministic = None
    for line in lines:
        if line.startswith(f"{workload} deterministic "):
            deterministic = json.loads(line.split(" ", 2)[2])
    return result, deterministic


def check_contract(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = run(workload, trace=0)
    check_contract(result, CONTRACT["end_to_end"])
    assert result["metrics"]["success_rate"]["value"] == 1.0
    for name in ("latency_p50_ms", "throughput_qps", "setup_s", "plan_sim_ms"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat(workload):
    first, counted = run(workload, trace=1)
    check_contract(first, CONTRACT["per_layer"])
    assert counted is not None
    assert all(value > 0 for value in counted["counters"].values()), counted
    _, again = run(workload, trace=1)
    assert again["counters"] == counted["counters"]
    assert again["plan_fingerprint"] == counted["plan_fingerprint"]
    if workload in SIM_WORKLOADS:
        assert again["plan_sim_ms"] == counted["plan_sim_ms"]
        assert again["estimate_qerror_p50"] == counted["estimate_qerror_p50"]
