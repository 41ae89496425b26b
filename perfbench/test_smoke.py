"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted reference output is reported as a failed op, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.3",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(*args, cwd=ROOT):
    proc = _run(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_bench(dest: Path) -> Path:
    """Copy the benchmark's files into `dest`, which then acts as a checkout."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    return dest / "perfbench"


def test_every_named_metric_is_emitted_with_its_unit():
    result = _result("--workload", "all")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = result["metrics"][f"{workload['name']}:{metric['name']}"]
            assert got["unit"] == metric["unit"], (workload["name"], metric["name"])
            assert isinstance(got["value"], (int, float))
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][f"{workload['name']}:{metric['name']}"]["value"] > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_run_prints_exactly_its_section(trace, section):
    result = _result("--workload", "mc", "--seed", "3", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload, job, column, factor", [
    ("design-stsc", "optimize-stsc", "eta", 1 + 1e-6),   # analytic: 1e-9 relative gate
    ("mc", "simulate-ltsc", "eta", 1.05),                 # MC: 4 combined SE gate
])
def test_corrupted_reference_is_a_failed_op(tmp_path, workload, job, column, factor):
    path = _copy_bench(tmp_path) / "reference" / "smoke.json"
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    ref = json.loads(path.read_text(encoding="utf-8"))
    table = ref["workloads"][workload][job]
    table["rows"][0][table["header"].index(column)] *= factor
    path.write_text(json.dumps(ref), encoding="utf-8")
    result = _result("--workload", workload, cwd=tmp_path)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = _run("--workload", "mc", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
