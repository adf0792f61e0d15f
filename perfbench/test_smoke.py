"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench

Runs every workload on small graphs for one second, untraced and traced,
and checks that each run reports every metric ``BENCHMARK.json`` names,
with its unit, and that no op failed; also checks the lower-decile
helper and the host gauge's period.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    metrics = _result("build", 1)["metrics"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert metrics["server.errors"]["value"] == 0


def test_fast_time_is_the_nearest_rank_lower_decile():
    from common import fast_time
    assert fast_time([float(t) for t in range(20, 0, -1)]) == 2.0
    assert fast_time([0.5]) == 0.5


def test_host_gauge_times_the_reference_at_most_once_a_period():
    from common import GAUGE_REFERENCE_S, HostGauge
    gauge = HostGauge()
    gauge.tick()
    gauge.tick()
    assert len(gauge.times) == 1
    assert gauge.scale() == GAUGE_REFERENCE_S / gauge.times[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
