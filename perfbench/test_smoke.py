"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

A tiny run of every workload must report every metric ``BENCHMARK.json``
names, with its unit and no failed operation, untraced and traced; one
seed must always give byte-identical request schedules; the knee sweep
must run; and without the program under test the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: runnable and checked, though not gated by BENCHMARK.json
UNGATED = ["tile_serve"]


def run_benchmark(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_tiny_run_reports_every_metric(workload, trace, section):
    proc = run_benchmark(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_same_seed_gives_byte_identical_schedules():
    sys.path.insert(0, str(HERE))
    import common

    common.require_source_tree()
    import served

    for workload in served.WORKLOADS:
        first, again, other = (
            served.schedule_bytes(workload, seed, 5.0, tiny=True)
            for seed in (11, 11, 12)
        )
        assert first == again
        assert first != other


def test_knee_sweep_reports_a_level():
    proc = subprocess.run(
        [sys.executable, "perfbench/knee.py", "--workload", "live_window",
         "--seed", "3", "--seconds", "2", "--scales", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "scale 1: offered_per_s=" in proc.stdout
    assert "failed=0" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
