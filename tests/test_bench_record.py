"""tools/bench_record.py: the workloads and run length it reads from
BENCHMARK.json, the Tier-1 summary parser, on fixed pytest output, and the
jobs block, on tiny configs.

The recording itself runs the Tier-1 suite, so no test here runs it.
"""

import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"


def load(path):
    """The tool's module, loaded from path."""
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = load(TOOL)

DURATIONS = """\
........................................................................ [ 98%]
..................                                                       [100%]
============================= slowest 15 durations =============================
10.11s call     tests/test_fuzz_config.py::test_every_drawn_config_ends_cleanly
0.67s call     tests/test_exact_reference.py::test_optimizer_matches_reference[4-adaptive]
"""


def test_workloads_and_run_length_come_from_the_benchmark(tmp_path):
    # the recording runs the workloads BENCHMARK.json declares, in its order,
    # for its run length: a copy of the tool beside another declaration reads that one
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench_record.WORKLOADS == tuple(w["name"] for w in declared["workloads"])
    assert bench_record.SECONDS == declared["run_seconds"]
    (tmp_path / "tools").mkdir()
    copy = tmp_path / "tools" / "bench_record.py"
    copy.write_text(TOOL.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 3, "workloads": [{"name": "b"}, {"name": "a"}]}), encoding="utf-8")
    other = load(copy)
    assert (other.WORKLOADS, other.SECONDS) == (("b", "a"), 3)


@pytest.mark.parametrize("summary, counts", [
    ("1239 passed in 78.83s (0:01:18)", (1239, 0, 0, 0)),
    ("1 failed, 1238 passed, 2 warnings in 80.12s (0:01:20)", (1238, 1, 0, 2)),
    ("3 failed, 10 passed, 1 skipped, 1 warning, 2 errors in 5.00s", (10, 3, 2, 1)),
    ("1 error in 0.50s", (0, 0, 1, 0)),
    ("==== 7 passed, 1 xfailed, 1 deselected in 1.25s ====", (7, 0, 0, 0)),
])
def test_counts_from_the_summary_line(summary, counts):
    want = dict(zip(("passed", "failed", "errors", "warnings"), counts))
    assert bench_record.pytest_counts(DURATIONS + summary + "\n") == want


def test_the_last_summary_line_counts():
    # a test's own output may hold a line of the same form; pytest's comes last
    output = "4 passed in 0.10s\n" + DURATIONS + "2 failed, 5 passed in 3.00s\n"
    assert bench_record.pytest_counts(output) == {"passed": 5, "failed": 2, "errors": 0,
                                                  "warnings": 0}


@pytest.mark.parametrize("output", ["", DURATIONS, "no tests ran in 0.01s\n",
                                    "Interrupted: 1 error during collection\n"])
def test_no_summary_line_gives_no_counts(output):
    assert bench_record.pytest_counts(output) == dict.fromkeys(
        ("passed", "failed", "errors", "warnings"))



# runtime knobs every job takes: a coarse lattice, a small quadrature and budget
TINY = {"quad.n": 8, "grid.r_step": 1.0, "grid.alpha_step": 0.5, "grid.refine": 1,
        "mc.sessions": 2000}


def test_jobs_block_on_tiny_configs(tmp_path):
    # the pinned job list, each job in a fresh interpreter on a tiny config
    spec = json.loads(bench_record.JOBS.read_text(encoding="utf-8"))
    assert {"analytic", "simulate", "validate"} | {f"figure{n}" for n in range(2, 7)} <= set(spec)
    assert {tuple(job["argv"]) for job in spec.values()} >= {("optimize",)}
    tiny = {name: {**job, "config": {**job["config"], **TINY}} for name, job in spec.items()}
    block = bench_record.jobs(tiny, tmp_path)
    assert list(block) == list(spec)
    for name, job in block.items():
        assert set(job) == {"argv", "wall_s", "cpu_s", "peak_rss_mb", "exit_code", "csv_sha256"}
        assert job["argv"] == spec[name]["argv"]
        assert job["exit_code"] == 0, name
        assert job["wall_s"] > 0 and job["cpu_s"] > 0 and job["peak_rss_mb"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", job["csv_sha256"])
    # a job that fails is recorded with its exit code and no CSV
    failed = bench_record.jobs({"bad": {"argv": ["optimize"], "config": {"regime": "nope"}}},
                               tmp_path)
    assert failed["bad"]["exit_code"] == 2 and failed["bad"]["csv_sha256"] is None
