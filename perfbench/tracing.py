"""In-memory span tracer that wraps relharq's layers from outside the package.

Every public function of the traced modules is wrapped at each module that
holds a reference to it, because the package imports names directly (for
example `relharq.optimize.node_reward_length` and `relharq.stsc.slot_threshold`).
FadingModel's cdf/cdf_strict/ppf/sample are wrapped on the class, and the
simulator's private batch stepper is wrapped as `simulate.run_batch`.

A span records its name, parent, start and end; a span's self time is its
duration minus the union of its children's intervals.  Work counters (points,
cells, tuples, sessions) are read from arguments and results at the same
boundary.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
import time

MODULES = ("fading", "channel", "ltsc", "stsc", "simulate", "optimize", "config")
CLI_JOBS = ("analytic", "simulate", "optimize", "figure")

# Per-layer metrics reported by a traced run: (name, unit).  A layer that the
# workload does not exercise reports 0.
LAYER_METRICS = (
    [(f"{m}.self_s", "s") for m in MODULES + ("cli",)]
    + [("fading.cdf.calls", "count"), ("fading.cdf.self_s", "s"),
       ("fading.cdf.p50_ms", "ms"), ("fading.cdf.ptail_ms", "ms"),
       ("fading.cdf.rayleigh.points_per_s", "1/s"), ("fading.cdf.rician.points_per_s", "1/s"),
       ("fading.sample.self_s", "s"), ("fading.sample.points_per_s", "1/s"),
       ("fading.ppf.self_s", "s"), ("fading.quantize.self_s", "s"),
       ("channel.slot_threshold.calls", "count"), ("channel.slot_threshold.self_s", "s"),
       ("channel.slot_threshold.cells", "count"),
       ("channel.slot_threshold.p50_ms", "ms"), ("channel.slot_threshold.ptail_ms", "ms"),
       ("channel.mutual_info.calls", "count"), ("channel.mutual_info.self_s", "s"),
       ("channel.mutual_info.cells", "count"),
       ("ltsc.node_tables.calls", "count"), ("ltsc.node_tables.self_s", "s"),
       ("ltsc.node_tables.cells_per_s", "1/s"), ("ltsc.node_tables.calls_per_design", "ratio"),
       ("ltsc.node_tables.p50_ms", "ms"), ("ltsc.node_tables.ptail_ms", "ms"),
       ("stsc.stsc_quantities.calls", "count"), ("stsc.stsc_quantities.self_s", "s"),
       ("stsc.stsc_quantities.cells_per_s", "1/s"),
       ("stsc.stsc_quantities.p50_ms", "ms"), ("stsc.stsc_quantities.ptail_ms", "ms"),
       ("simulate.estimate.self_s", "s"), ("simulate.run_batch.self_s", "s"),
       ("simulate.run_batch.p50_ms", "ms"), ("simulate.run_batch.ptail_ms", "ms"),
       ("simulate.sessions_per_s", "1/s"), ("simulate.cpu_per_wall", "ratio"),
       ("simulate.adaptations_per_session", "ratio"),
       ("optimize.tuples", "count"), ("optimize.tuples_per_design", "ratio"),
       ("optimize.dinkelbach.iterations", "count"),
       ("config.load.self_s", "s")]
    + [(f"cli.{job}.wall_s", "s") for job in CLI_JOBS]
    + [("trace.spans", "count"), ("trace.overhead_s", "s")]
)

# Spans whose call-duration distribution is reported (p50 and tail).
_TIMED = ("fading.cdf", "channel.slot_threshold", "ltsc.node_tables",
          "stsc.stsc_quantities", "simulate.run_batch")
_TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)


class Tracer:
    """Span recorder plus the patches that route relharq's calls through it."""

    def __init__(self):
        self.spans = []  # (id, parent, name, t0, t1, counters)
        self._ids = itertools.count(1)
        self._patches = []
        # One span stack per thread.  The simulator's batch threads (mc.workers > 1)
        # start with an empty stack; their outermost spans are children of the span
        # the creating thread is in (simulate.estimate, blocked on the pool), so the
        # batches' time is not counted as estimate's self time as well.
        self._local = threading.local()
        self._local.stack = self._main_stack = []

    # ---- spans

    def call(self, name, fn, args, kwargs, measure=None, cpu=False):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        span_id = next(self._ids)
        outer = local.stack or self._main_stack
        parent = outer[-1] if outer else None
        local.stack.append(span_id)
        c0 = time.process_time() if cpu else 0.0
        t0 = time.perf_counter()
        result = counters = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
            if measure is not None and result is not None:
                counters = measure(args, kwargs, result)
            if cpu:
                counters = {**(counters or {}), "cpu_s": time.process_time() - c0}
            self.spans.append((span_id, parent, name, t0, t1, counters))

    # ---- patches

    def install(self):
        import relharq.cli  # noqa: F401  (loads every traced module)
        from relharq.fading import FadingModel

        originals = {}
        for short in MODULES:
            mod = sys.modules[f"relharq.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[obj] = f"{short}.{attr}"
        originals[sys.modules["relharq.simulate"]._run_batch] = "simulate.run_batch"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname == "relharq" or modname.startswith("relharq."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        for meth in ("cdf", "cdf_strict", "ppf", "sample"):
            fn = FadingModel.__dict__[meth]
            self._patch(FadingModel, meth, self._wrap(f"fading.{meth}", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)
        if measure is not None and getattr(measure, "needs_signature", False):
            measure = functools.partial(measure, inspect.signature(fn))
        cpu = name == "simulate.estimate"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure, cpu)

        return wrapped


# ---- work counters, read at the traced boundary

def _size(x) -> int:
    """Element count of an array, sequence or scalar (numpy's size, without numpy)."""
    if hasattr(x, "size"):
        return int(x.size)
    return len(x) if isinstance(x, (list, tuple)) else 1


def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _stsc_cells(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    return {"cells": _size(a["r1_vec"]) * _size(a["r2_vec"]) * a["n"] ** 3}


def _lcsit_tuples(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    gs, meta = a["grid_spec"], result.metadata
    r_axis = len(gs.r_axis())
    lattice = r_axis if a["single_layer"] else r_axis ** 2 * len(gs.alpha_axis())
    return {"tuples": meta["iterations"] * lattice * meta["n_nodes"],
            "iterations": meta["iterations"]}


_stsc_cells.needs_signature = _lcsit_tuples.needs_signature = True

_MEASURES = {
    "fading.cdf": lambda a, k, r: {"points": _size(a[1]), "kind": a[0].kind},
    "fading.sample": lambda a, k, r: {"points": _size(r)},
    "channel.slot_threshold": lambda a, k, r: {"cells": _size(r)},
    "channel.mutual_info": lambda a, k, r: {"cells": _size(r)},
    "ltsc.node_tables": lambda a, k, r: {"cells": r[0].size},
    "stsc.stsc_quantities": _stsc_cells,
    "simulate.estimate": lambda a, k, r: {"sessions": r.n_sessions,
                                          "adaptations": r.adaptation_count},
    "optimize.optimize_single_layer": lambda a, k, r: {"tuples": r.metadata["n_evals"]},
    "optimize.optimize_no_lcsit": lambda a, k, r: {"tuples": r.metadata["n_evals"]},
    "optimize.optimize_lcsit": _lcsit_tuples,
}


# ---- derived metrics

def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for span_id, _, _, t0, t1, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[span_id] = (t1 - t0) - covered
    return out


def tail(durations_ms) -> tuple:
    """(p50, highest listed percentile with >= 10 samples beyond it, its level, n).

    With fewer than 20 samples no level qualifies and the maximum is reported
    (level 100)."""
    data = sorted(durations_ms)
    n = len(data)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    for level in _TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return statistics.median(data), data[math.ceil(level / 100.0 * n) - 1], level, n
    return statistics.median(data), data[-1], 100.0, n


def layer_metrics(spans, iterations: int, designs: int, traced_walls, untraced_walls):
    """Per-layer metrics per traced iteration, plus the tail details for printing."""
    selfs = self_times(spans)
    per = {}  # name -> list of (duration, self, counters)
    for span_id, _, name, t0, t1, counters in spans:
        per.setdefault(name, []).append((t1 - t0, selfs[span_id], counters or {}))

    def total(name, field=None, where=None):
        rows = per.get(name, ())
        if where is not None:
            rows = [r for r in rows if where(r[2])]
        if field == "dur":
            return sum(r[0] for r in rows)
        if field == "self":
            return sum(r[1] for r in rows)
        if field is None:
            return len(rows)
        return sum(r[2].get(field, 0) for r in rows)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    it = max(iterations, 1)
    m = {f"{module}.self_s": 0.0 for module in MODULES + ("cli",)}
    for span_id, _, name, *_ in spans:
        m[f"{name.split('.')[0]}.self_s"] += selfs[span_id] / it
    for name in ("fading.cdf", "fading.sample", "fading.ppf", "fading.quantize",
                 "channel.slot_threshold", "channel.mutual_info", "ltsc.node_tables",
                 "stsc.stsc_quantities", "simulate.estimate", "simulate.run_batch"):
        m[f"{name}.calls"] = total(name) / it
        m[f"{name}.self_s"] = total(name, "self") / it
    tails = {}
    for name in _TIMED:
        p50, pt, level, n = tail([r[0] * 1e3 for r in per.get(name, ())])
        m[f"{name}.p50_ms"], m[f"{name}.ptail_ms"] = p50, pt
        tails[f"{name}.ptail_ms"] = (level, n)
    for kind in ("rayleigh", "rician"):
        def of_kind(c, kind=kind):
            return c.get("kind") == kind
        m[f"fading.cdf.{kind}.points_per_s"] = ratio(
            total("fading.cdf", "points", of_kind), total("fading.cdf", "dur", of_kind))
    m["fading.sample.points_per_s"] = ratio(total("fading.sample", "points"),
                                            total("fading.sample", "dur"))
    for name in ("channel.slot_threshold", "channel.mutual_info"):
        m[f"{name}.cells"] = total(name, "cells") / it
    for name in ("ltsc.node_tables", "stsc.stsc_quantities"):
        m[f"{name}.cells_per_s"] = ratio(total(name, "cells"), total(name, "dur"))
    m["ltsc.node_tables.calls_per_design"] = ratio(total("ltsc.node_tables"), designs)
    est_wall = total("simulate.estimate", "dur")
    m["simulate.sessions_per_s"] = ratio(total("simulate.estimate", "sessions"), est_wall)
    m["simulate.cpu_per_wall"] = ratio(total("simulate.estimate", "cpu_s"), est_wall)
    m["simulate.adaptations_per_session"] = ratio(total("simulate.estimate", "adaptations"),
                                                  total("simulate.estimate", "sessions"))
    tuples = sum(total(f"optimize.{fn}", "tuples") for fn in
                 ("optimize_single_layer", "optimize_no_lcsit", "optimize_lcsit"))
    m["optimize.tuples"] = tuples / it
    m["optimize.tuples_per_design"] = ratio(tuples, designs)
    m["optimize.dinkelbach.iterations"] = total("optimize.optimize_lcsit", "iterations") / it
    m["config.load.self_s"] = total("config.load_config", "self") / it
    for job in CLI_JOBS:
        m[f"cli.{job}.wall_s"] = total(f"cli.{job}", "dur") / it
    m["trace.spans"] = len(spans) / it
    m["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls)
                             if traced_walls and untraced_walls else 0.0)
    units = dict(LAYER_METRICS)
    return {name: m[name] for name in units}, tails
