"""One benchmark run inside a fresh interpreter.

Imports relharq from the checkout, loads the generated configs and prints a
`ready` line: the harness times set-up up to that line.  With --probe it
stops there.  Otherwise it runs the warm-up jobs once, then iterations of the
workload's jobs through `relharq.cli.main` until --seconds have passed, checks
every job's output after its iteration (outside the timed region) and prints
one JSON result line.  The calibration kernel (calibrate.py, in a helper
process) is timed before and after every job, and each job's time is also
reported rescaled by it.  With --trace 1, iterations alternate between
untraced and traced, so the traced run also yields the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True, help="plan.json written by run.py")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    import relharq.cli
    from relharq.config import load_config
    src = Path(plan["root"], "src").resolve()
    if src not in Path(relharq.__file__).resolve().parents:
        print(f"relharq imported from {relharq.__file__}, not from {src}", file=sys.stderr)
        return 2
    for job in plan["jobs"] + plan["warmup"]:
        load_config(job["config"])
    _emit({"event": "ready"})
    if args.probe:
        return 0

    import calibrate
    import checks
    import numpy
    import scipy
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()

    ops = {"attempted": 0, "failed": 0, "failures": []}
    outputs = {}

    def run_jobs(jobs, traced: bool, reference: dict | None, record: bool) -> dict:
        walls, cpus, ref_walls, ref_cpus, calib_walls = {}, {}, {}, {}, []
        results = {}
        before = calibrator.measure()
        calib_walls.append(before[0])
        if traced:
            tracer.install()
        try:
            for job in jobs:
                argv = job["argv"] + ["--config", job["config"], "--out", job["out"]]
                t0, c0 = time.perf_counter(), time.process_time()
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        if traced:
                            rc = tracer.call(f"cli.{job['argv'][0]}", relharq.cli.main,
                                             (argv,), {})
                        else:
                            rc = relharq.cli.main(argv)
                except Exception:  # a traceback is a failed op, not a crashed benchmark
                    rc, sink = None, io.StringIO(traceback.format_exc())
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                results[job["name"]] = (rc, sink.getvalue())
                after = calibrator.measure()
                calib_walls.append(after[0])
                walls[job["name"]], cpus[job["name"]] = wall, cpu
                ref_walls[job["name"]] = wall * calibrate.REFERENCE_S * 2 / (before[0] + after[0])
                ref_cpus[job["name"]] = cpu * calibrate.REFERENCE_S * 2 / (before[1] + after[1])
                before = after
        finally:
            if traced:
                tracer.uninstall()
        items = designs = 0
        for job in jobs:
            rc, log = results[job["name"]]
            ops["attempted"] += 1
            errors = [f"exit code {rc}: {log.strip()[-400:]}"] if rc != 0 else []
            if not errors:
                try:
                    header, rows = checks.read_csv(Path(job["out"], job["csv"]))
                except (OSError, ValueError) as err:
                    errors = [f"unreadable CSV: {err}"]
            if not errors:
                errors = checks.invariant_errors(job["kind"], header, rows)
                if reference is not None and job["name"] in reference:
                    errors += checks.reference_errors(job["kind"], header, rows,
                                                      reference[job["name"]])
                n = checks.items(job["kind"], header, rows)
                items += n
                designs += n if job["kind"].startswith(("optimize", "figure")) else 0
                if record:
                    outputs[job["name"]] = {"header": header, "rows": rows}
            if errors:
                ops["failed"] += 1
                ops["failures"].append({"job": job["name"], "errors": errors[:5]})
        return {"wall_s": sum(walls.values()), "cpu_s": sum(cpus.values()),
                "wall_ref_s": sum(ref_walls.values()), "cpu_ref_s": sum(ref_cpus.values()),
                "items": items, "designs": designs, "traced": traced,
                "job_wall_s": walls, "job_cpu_s": cpus, "calib_wall_s": calib_walls}

    calibrator = calibrate.Calibrator()
    try:
        run_jobs(plan["warmup"], False, plan["warmup_reference"], record=False)
        iterations = []
        start = time.perf_counter()
        while True:
            untraced = [i for i in iterations if not i["traced"]]
            traced = [i for i in iterations if i["traced"]]
            if (time.perf_counter() - start >= plan["seconds"] and untraced
                    and (traced or not tracer)):
                break
            trace_this = tracer is not None and len(traced) < len(untraced)
            iterations.append(run_jobs(plan["jobs"], trace_this, plan["reference"], record=True))
    finally:
        calibrator.close()

    result = {
        "event": "result",
        "iterations": iterations,
        **ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "outputs": outputs,
    }
    if tracer is not None:
        traced = [i for i in iterations if i["traced"]]
        metrics, tails = tracing.layer_metrics(
            tracer.spans, len(traced), sum(i["designs"] for i in traced),
            [i["wall_s"] for i in traced], [i["wall_s"] for i in iterations if not i["traced"]])
        result["layers"] = metrics
        result["tails"] = tails
        _write_spans(Path(plan["workdir"], "spans.jsonl"), tracer.spans)
    _emit(result)
    return 0


def _write_spans(path: Path, spans) -> None:
    origin = min((span[3] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, t0, t1, counters in spans:
            fh.write(json.dumps([span_id, parent, name, round((t0 - origin) * 1e6),
                                 round((t1 - origin) * 1e6), counters]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
