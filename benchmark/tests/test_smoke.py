"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmark/tests -q

Each workload runs in both modes and must print, as its last line, a result
carrying exactly the metrics BENCHMARK.json declares, with every output
check passed. Traced counts must repeat exactly for the same seed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B", "ratio")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    result = result_of(run_bench(workload, 0))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first = result_of(run_bench(workload, 1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    again = result_of(run_bench(workload, 1))
    for name, unit in declared.items():
        if unit in COUNT_UNITS:
            assert first["metrics"][name] == again["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
