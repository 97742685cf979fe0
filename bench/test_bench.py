"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Runs every workload traced and untraced with ``--tiny`` and checks that
each metric listed in BENCHMARK.json is emitted with its unit, that every
output check passed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 6
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_the_program():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
