"""relharq benchmark: times CLI jobs end to end and, traced, per layer.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each run generates its job configs from the
seed (see workloads.py), times set-up in fresh interpreters, then runs
worker.py, which measures iterations of the workload's jobs for --seconds.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
--workload all runs every workload both ways.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A full
record (host, provenance, configs, per-iteration samples, failures) goes to
perfbench/_work/results/.  --smoke runs the same jobs at tiny sizes.
--write-reference stores the outputs at the default seed as the reference
that later runs at that seed are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
REFERENCE = {False: BENCH_DIR / "reference" / "full.json",
             True: BENCH_DIR / "reference" / "smoke.json"}

SETUP_PROBES = 6          # extra fresh interpreters timed for setup_s
# beyond --seconds: set-up probes, warm-up and the last iteration (165 s at 15)
RUN_MARGIN_S = 150.0
# one single-process load: BLAS pinned to one thread, the simulator's pool at 2
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("items_per_ref_s", "1/s"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _reference(path: Path, workload: str, seed: int):
    if not path.is_file():
        return None
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref["workloads"].get(workload) if ref["seed"] == seed else None


def _write_plan(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                reference: dict | None, warmup_reference: dict | None) -> Path:
    workdir = WORK_DIR / workload
    shutil.rmtree(workdir, ignore_errors=True)
    plan = {"root": str(ROOT), "workdir": str(workdir), "seconds": seconds, "trace": trace,
            "reference": reference, "warmup_reference": warmup_reference}
    for key, size_smoke, sub in (("jobs", smoke, "run"), ("warmup", True, "warmup")):
        entries = []
        for job in workloads.jobs(workload, seed, size_smoke):
            base = workdir / sub
            base.mkdir(parents=True, exist_ok=True)
            cfg = base / f"{job.name}.cfg"
            cfg.write_text(job.config_text(), encoding="utf-8")
            entries.append({"name": job.name, "kind": job.kind, "argv": list(job.argv),
                            "config": str(cfg), "out": str(base / job.name),
                            "csv": job.csv_name})
        plan[key] = entries
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return path


def _start(plan: Path, probe: bool, log) -> tuple:
    """Start a worker; return it and the seconds until it printed `ready`."""
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--plan", str(plan)]
    t0 = time.perf_counter()
    # a session of its own, so that _kill also ends the worker's calibration helper
    proc = subprocess.Popen(cmd + (["--probe"] if probe else []), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=log, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line.startswith('{"event": "ready"'):
        _kill(proc)
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode}); see {log.name}")
    return proc, setup


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_worker(plan: Path, deadline: float) -> tuple:
    """Time SETUP_PROBES + 1 set-ups and run the measuring worker."""
    setups = []
    with open(plan.parent / "worker.log", "w", encoding="utf-8") as log:
        procs = []
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                   lambda: [_kill(p) for p in procs])
        watchdog.start()
        try:
            for _ in range(SETUP_PROBES):
                proc, setup = _start(plan, True, log)
                procs.append(proc)
                proc.communicate()
                setups.append(setup)
            proc, setup = _start(plan, False, log)
            procs.append(proc)
            setups.append(setup)
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
            for p in procs:
                if p.poll() is None:
                    _kill(p)
                p.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode}); see {log.name}")
    return setups, json.loads(out.strip().splitlines()[-1])


def _host(versions: dict) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, **versions}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance() -> dict:
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src" / "relharq").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "src_relharq_lines": lines}


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            write_reference: bool = False) -> dict:
    started = time.monotonic()
    if write_reference:
        reference = warmup_reference = None
    else:
        reference = _reference(REFERENCE[smoke], workload, seed)
        warmup_reference = _reference(REFERENCE[True], workload, seed)
    plan = _write_plan(workload, seed, seconds, trace, smoke, reference, warmup_reference)
    setups, res = _run_worker(plan, started + seconds + RUN_MARGIN_S)
    if trace:
        metrics = dict(res["layers"])
        units = dict(tracing.LAYER_METRICS)
    else:
        its = res["iterations"]
        metrics = {
            "wall_ref_s": statistics.median(i["wall_ref_s"] for i in its),
            "cpu_ref_s": statistics.median(i["cpu_ref_s"] for i in its),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "items_per_ref_s": statistics.median(i["items"] / i["wall_ref_s"] for i in its),
        }
        units = dict(END_TO_END)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "host": _host(res["versions"]), "provenance": _provenance(),
        "configs": {job.name: job.config for job in workloads.jobs(workload, seed, smoke)},
        "setup_samples_s": setups, "iterations": res["iterations"],
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "tails": res.get("tails", {}), "outputs": res["outputs"],
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _print_record(rec: dict) -> None:
    host, prov = rec["host"], rec["provenance"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"iterations={len(rec['iterations'])} ops={rec['attempted']} "
          f"failed={rec['failed']}")
    print(f"#   host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']}")
    print(f"#   provenance: commit={prov['git_commit']} src_relharq_lines="
          f"{prov['src_relharq_lines']} src_sha256={prov['src_sha256'][:16]}")
    its = [i for i in rec["iterations"] if not i["traced"]]
    print(f"#   unscaled medians: wall_s={statistics.median(i['wall_s'] for i in its):.6g} "
          f"cpu_s={statistics.median(i['cpu_s'] for i in its):.6g} calibration_ms="
          f"{statistics.median(c for i in its for c in i['calib_wall_s']) * 1e3:.4g}")
    for failure in rec["failures"]:
        print(f"#   FAILED {failure['job']}: {'; '.join(failure['errors'])}")
    for name, m in rec["metrics"].items():
        extra = ""
        if name in rec["tails"]:
            level, n = rec["tails"][name]
            extra = f"  (p{level:g}, n={n})"
        print(f"{rec['workload']:<12} {name:<38} {m['value']:>14.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {workloads.DEFAULT_SEED}")
    if not (ROOT / "src" / "relharq" / "__init__.py").is_file():
        print(f"no relharq source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" and not args.write_reference \
        else (bool(args.trace),)
    records = []
    try:
        for name in names:
            for trace in modes:
                records.append(run_one(name, args.seed, args.seconds, trace, args.smoke,
                                       args.write_reference))
                _print_record(records[-1])
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    failed = sum(r["failed"] for r in records)
    if args.write_reference:
        if failed:
            print("not writing a reference from a run with failed jobs", file=sys.stderr)
            return 1
        path = REFERENCE[args.smoke]
        ref = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
               else {"seed": args.seed, "workloads": {}})
        for r in records:
            ref["workloads"][r["workload"]] = r["outputs"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"# wrote reference {path}")

    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            metrics[name if len(records) == 1 else f"{r['workload']}:{name}"] = m
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
