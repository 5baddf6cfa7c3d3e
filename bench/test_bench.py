"""Smoke test of the benchmark, so that it cannot rot:

    python3 -m pytest bench/test_bench.py

Runs the tiny variant of every workload, timed and traced, and checks
that every metric named in BENCHMARK.json prints with its unit; that a
recorded digest that no longer matches is reported as a failure, until
``--record-golden`` records it again; and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = proc.stdout.splitlines()[:-1]
    for m in named:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in table), m["name"]
    assert any(line.split()[:1] == ["ops_failed_ratio"] for line in table)


def _copy_checkout(dst: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dst / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_digest_is_a_failure(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    golden = tmp_path / "bench" / "golden.json"
    recorded = json.loads(golden.read_text(encoding="utf-8"))
    recorded["explicit-many"]["smoke"]["train"]["run.csv"] = "0" * 64
    golden.write_text(json.dumps(recorded), encoding="utf-8")

    proc = bench(tmp_path, "explicit-many", 0)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("FAIL train: run.csv") for line in proc.stdout.splitlines())

    assert bench(tmp_path, "explicit-many", 0, "--record-golden").returncode == 0
    assert bench(tmp_path, "explicit-many", 0).returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = bench(tmp_path, "explicit-many", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
