"""Smoke test of the benchmark itself; kept out of the tier-1 suite.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, group):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_ratio_is_counted_as_failed(monkeypatch):
    flp, ops, _ = run.set_up("sweep-small", 0, 0)
    ops = ops[:40]
    real = flp.verification.approx_ratio

    def bumped(mech, inst):
        report = real(mech, inst)
        return dataclasses.replace(report, ratio=report.ratio + 10)

    monkeypatch.setattr(flp.verification, "approx_ratio", bumped)
    bench_run = run.Run()
    bench_run.gate(flp, ops, bench_run.time_ops(flp, ops)[0])
    assert bench_run.attempted == bench_run.failed == len(ops)


def test_forged_violation_is_counted_as_failed(monkeypatch):
    flp, ops, _ = run.set_up("sp-suite", 0, 0)
    ops = [op for op in ops if flp.is_strategyproof(op.mech)][:5]
    forged = flp.SpScan(flp.SpViolation(0, ops[0].inst.locations[0], 1, 1, 0), 1, 0)
    monkeypatch.setattr(flp.verification, "sp_scan", lambda mech, inst: forged)
    bench_run = run.Run()
    bench_run.gate(flp, ops, bench_run.time_ops(flp, ops)[0])
    assert bench_run.failed == len(ops)


def test_fails_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sp-suite", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_digest_other_than_the_pinned_one_fails(monkeypatch, capsys):
    monkeypatch.setattr(run, "pinned_digest", lambda workload: "0" * 16)
    assert run.main(["--workload", "sweep-small", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
