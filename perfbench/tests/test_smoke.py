"""A tiny run of each workload, in both modes, through the command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=timeout)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5",
                     "--seconds", "0.6", "--trace", str(trace))
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, _ in expected:
        assert name in done.stdout.split("provenance")[0]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench("--workload", "insitu-small", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
