"""Seconds-long smoke test of the benchmark harness on tiny grids.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload once at smoke-test size, traced and untraced, checks
that every metric BENCHMARK.json names comes out with its unit, and that
a corrupted reference makes the gates fail operations.
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

import run  # noqa: E402
import worker  # noqa: E402
from gates import read_conds, read_twin_errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_names_workloads_the_harness_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(worker.WORKLOADS)


def test_every_seed_is_checked_against_a_recorded_reference():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in (0, 31, 32, -5, 10**9 + 7):
            assert worker.recorded_reference(workload, seed)


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    out = worker.measure(workload, 0, 0, trace=0, tiny=True, outdir=tmp_path)
    assert sum(r["failed"] for r in out["runs"]) == 0
    metrics = run.end_to_end(out, [out["setup_s"]])
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())

    out = worker.measure(workload, 0, 0, trace=1, tiny=True, outdir=tmp_path)
    metrics = run.per_layer(out)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["trace.coverage"]["value"] > 0.5


def _corrupt(reference: dict, workload: str) -> dict:
    bad = json.loads(json.dumps(reference))
    if worker.WORKLOADS[workload]["command"] == "twin":
        bad[sorted(bad)[0]][2] += 1e-6  # one variant's error after step 2
    else:
        bad["cond"][0] *= 1.0 + 1e-5
    return bad


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_corrupted_reference_fails_operations(workload, tmp_path):
    worker.measure(workload, 1, 0, trace=0, tiny=True, outdir=tmp_path)
    if worker.WORKLOADS[workload]["command"] == "twin":
        reference = read_twin_errors(tmp_path)
    else:
        rows = read_conds(tmp_path)
        reference = {"k_chi": [r[0] for r in rows], "cond": [r[1] for r in rows]}

    good = worker.measure(workload, 1, 0, trace=0, tiny=True, reference=reference, outdir=tmp_path)
    assert sum(r["failed"] for r in good["runs"]) == 0
    bad = worker.measure(
        workload, 1, 0, trace=0, tiny=True, reference=_corrupt(reference, workload), outdir=tmp_path
    )
    failed = sum(r["failed"] for r in bad["runs"])
    attempted = sum(r["attempted"] for r in bad["runs"])
    assert 0 < failed / attempted < 1


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "condlab-nested", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "condlab-nested", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
