"""Record one point of the benchmark trajectory as BENCH_<n>.json at the repo root.

    python3 tools/bench_record.py 11

Runs `perfbench/run.py` on each workload that `BENCHMARK.json` declares, at
seed 0 for its `run_seconds`, once untraced (the end-to-end metrics) and once
traced (the per-layer metrics), one run at a time, then each CLI job of
`tools/bench_jobs.json` once, then the acceptance tests once, then the Tier-1
suite (`TIER1`, the verify command of ROADMAP.md) once.  The file holds, per
workload and mode, the run's last output line (correct, attempted, failed,
metrics) with the iteration count and timing tails of its record in
`perfbench/_work/results/`; the cold start (the median time and peak RSS
of a fresh `import relharq.cli` over 7 interpreters, and the number of scipy
modules that import leaves loaded); the `jobs` block (per job, its argv, its
wall time, its CPU time and peak RSS from `os.wait4` on its interpreter, its
exit code and the sha256 of its CSV, so a record also shows that the bytes
held); the call time of each acceptance
criterion, read from pytest's `--durations` report; the `tier1` block (the
suite's wall time, its CPU time and peak RSS from `os.wait4` on the pytest
process and the subprocesses it waited for, its exit code, and its passed,
failed, errors and warnings counts, read from pytest's summary line); the
host (nproc, CPU, memory, Python, numpy and scipy versions, and the
`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` of the
recording's environment, null when unset: the acceptance tests and the Tier-1
suite run under them, while perfbench pins its jobs to one thread, and a BLAS
reduction's bits can depend on its thread count), the line count and digest
of `src/relharq`, the HEAD commit with whether `src/` matches it
(`src_matches_head` is false when the file is recorded from an uncommitted
tree, whose `git_commit` is then the parent), and the wall time of the whole
recording (about 4.5 minutes on a 2-core host, 60-90 s of it the Tier-1
suite and about 17 s the jobs).  Exits 1 when a run fails, a job's output
does not check out, a CLI job exits non-zero, an acceptance test fails or the
Tier-1 suite does not pass cleanly; the file is written either way.

`tools/bench_jobs.json` maps each job's name to its subcommand words
(`argv`) and its config keys (`config`, written as the job's config file; an
empty one runs the job at its defaults): `analytic`, `simulate` at 1e6
sessions, `optimize` for LTSC and STSC at csi none and for LTSC at csi
lcsit, `validate`, and `figure 2..6` at their defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
SEED, SECONDS = 0, BENCHMARK["run_seconds"]
MODES = ((0, "end_to_end"), (1, "per_layer"))
COLD_STARTS = 7
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# run in a fresh interpreter: the import's wall time, its peak RSS in MB and
# the scipy modules it loads
COLD_START = ("import resource, sys, time; t0 = time.perf_counter(); import relharq.cli; "
              "print(time.perf_counter() - t0, "
              "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "
              "sum(m.split('.')[0] == 'scipy' for m in sys.modules))")
# a --durations line: "17.20s call     tests/test_acceptance.py::test_criterion_01_..."
CRITERION_CALL = re.compile(r"^([0-9.]+)s call\s+\S+::test_criterion_(\d+)_", re.MULTILINE)
JOBS = ROOT / "tools" / "bench_jobs.json"
# the Tier-1 verify command, run at the repo root with src/ on PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_COUNTS = ("passed", "failed", "errors", "warnings")
# pytest's closing line, as in "= 1 failed, 1238 passed, 2 warnings in 80.12s (0:01:20) ="
SUMMARY = re.compile(r"^=*\s*((?:\d+ [a-z]+(?:, )?)+) in [0-9.]+s\b.*$", re.MULTILINE)


def run(workload: str, trace: int) -> tuple:
    """One benchmark run: the JSON of its last output line and its full record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    results = ROOT / "perfbench" / "_work" / "results"
    record = json.loads((results / f"{workload}-seed{SEED}-trace{trace}.json").read_text(
        encoding="utf-8"))
    return summary, record


def src_matches_head():
    """Whether `src/` is HEAD's (no staged, unstaged or untracked change), so
    whether `git_commit` names the measured tree; None outside a git checkout."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout == "" if proc.returncode == 0 else None


def src_env() -> dict:
    """The environment with the checkout's `src/` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def cold_start() -> dict:
    """Median import time and peak RSS of `import relharq.cli` over fresh
    interpreters, and the number of scipy modules it leaves loaded."""
    runs = [subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, env=src_env(),
                           capture_output=True, text=True, check=True).stdout.split()
            for _ in range(COLD_STARTS)]
    return {"interpreters": COLD_STARTS,
            "import_s": round(statistics.median(float(run[0]) for run in runs), 4),
            "rss_mb": round(statistics.median(float(run[1]) for run in runs), 2),
            "scipy_modules": max(int(run[2]) for run in runs)}


def criteria() -> tuple:
    """Whether the acceptance tests pass, and each criterion's call time in s."""
    argv = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-p",
            "no:cacheprovider", "--durations=0", "--durations-min=0"]
    proc = subprocess.run(argv, cwd=ROOT, env=src_env(), capture_output=True, text=True,
                          check=False)
    times = {num: float(secs) for secs, num in CRITERION_CALL.findall(proc.stdout)}
    return proc.returncode == 0, dict(sorted(times.items()))


def pytest_counts(output: str) -> dict:
    """The passed, failed, errors and warnings counts of pytest's last summary
    line in output (0 when the line leaves one out, "error" and "warning"
    included); None for each when output has no summary line."""
    lines = SUMMARY.findall(output)
    if not lines:
        return dict.fromkeys(TIER1_COUNTS)
    counts = {{"error": "errors", "warning": "warnings"}.get(word, word): int(n)
              for n, word in re.findall(r"(\d+) ([a-z]+)", lines[-1])}
    return {key: counts.get(key, 0) for key in TIER1_COUNTS}


def waited(argv: list) -> tuple:
    """Run argv at the repo root with src/ on PYTHONPATH and wait for it:
    its exit code, its wall time, its resource usage from os.wait4 (which
    takes in the subprocesses it waited for) and its output."""
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=src_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, time.monotonic() - started, usage, output


def jobs(spec: dict, workdir) -> dict:
    """One run of each job of spec (name -> {"argv", "config"}, as in JOBS),
    each in a fresh interpreter writing under workdir: its argv, wall time,
    CPU time (user + system) and peak RSS, exit code, and the sha256 of its
    CSV (None when it wrote none)."""
    out = {}
    for name, job in spec.items():
        config, outdir = Path(workdir) / f"{name}.cfg", Path(workdir) / name
        config.write_text("".join(f"{key} = {value}\n" for key, value in job["config"].items()),
                          encoding="utf-8")
        code, wall, usage, _ = waited([sys.executable, "-m", "relharq.cli", *job["argv"],
                                       "--config", str(config), "--out", str(outdir)])
        csv = outdir / f"{''.join(job['argv'])}.csv"
        out[name] = {"argv": job["argv"], "wall_s": round(wall, 2),
                     "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
                     "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "exit_code": code,
                     "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()
                     if csv.is_file() else None}
    return out


def tier1() -> dict:
    """One run of the Tier-1 suite: wall time, the CPU time (user + system)
    and peak RSS from os.wait4 on the pytest process (which take in the
    subprocesses it waited for), its exit code and its pytest_counts."""
    code, wall, usage, output = waited([sys.executable, *TIER1])
    return {"command": " ".join(["python", *TIER1]),
            "wall_s": round(wall, 1),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 1),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit_code": code, **pytest_counts(output)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the file is named BENCH_<n>.json")
    args = parser.parse_args(argv)

    started = time.monotonic()
    mem_gb = round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)
    bench = {"seed": SEED, "seconds": SECONDS, "host": None, "src_relharq": None,
             "cold_start": None, "workloads": {}, "jobs": None, "acceptance": None,
             "tier1": None}
    ok = True
    print("cold start ...", file=sys.stderr, flush=True)
    bench["cold_start"] = cold_start()
    try:
        for workload in WORKLOADS:
            entry = bench["workloads"][workload] = {}
            for trace, mode in MODES:
                print(f"{workload} {mode} ...", file=sys.stderr, flush=True)
                summary, record = run(workload, trace)
                ok &= summary["correct"]
                entry[mode] = {**summary, "iterations": len(record["iterations"]),
                               "tails": record["tails"]}
                bench["host"] = {**record["host"], "mem_total_gb": mem_gb,
                                 **{name: os.environ.get(name) for name in THREAD_ENV}}
                bench["src_relharq"] = {**record["provenance"],
                                        "src_matches_head": src_matches_head()}
    except RuntimeError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        bench["error"] = str(err)
        ok = False
    print("jobs ...", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        bench["jobs"] = jobs(json.loads(JOBS.read_text(encoding="utf-8")), workdir)
    ok &= all(job["exit_code"] == 0 for job in bench["jobs"].values())
    print("acceptance tests ...", file=sys.stderr, flush=True)
    passed, call_s = criteria()
    bench["acceptance"] = {"passed": passed, "criterion_call_s": call_s}
    ok &= passed
    print("tier-1 suite ...", file=sys.stderr, flush=True)
    bench["tier1"] = tier1()
    ok &= bench["tier1"]["exit_code"] == 0 and bench["tier1"]["warnings"] == 0
    bench["record_wall_s"] = round(time.monotonic() - started, 1)
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path} in {bench['record_wall_s']} s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
