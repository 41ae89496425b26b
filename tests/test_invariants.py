"""Runtime invariants raise real errors (which `python -O` keeps) and exit 3."""

import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np

import relharq
from relharq import cli, config, optimize, simulate, stsc
from relharq.channel import RatePolicy, SystemConfig
from relharq.fading import FadingModel
from test_fading import counted_submits

SRC = pathlib.Path(simulate.__file__).parent

BASE = """
regime = ltsc
T = 2
compression = adaptive
fading_D.dist = rician
fading_D.rho_dB = 5.0
fading_S.dist = rayleigh
policy = 1.0,0.2,0.9
mc.sessions = 4000
quad.n = 8
grid.r_max = 2.0
grid.r_step = 0.5
grid.alpha_step = 0.5
grid.refine = 0
"""


def run(tmp_path, command, extra=""):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(BASE + extra, encoding="utf-8")
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_config_layer_imports_neither_optimizer_nor_cli():
    # the jobs read the config layer; it must not depend on them
    names = set()
    for node in ast.walk(ast.parse((SRC / "config.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            if node.module is None:  # from . import x
                names.update(alias.name for alias in node.names)
    assert names.isdisjoint({"optimize", "cli"})


def test_the_package_does_not_import_scipy_stats():
    # scipy.stats took most of a CLI job's start-up; scipy.special has the kernels
    code = ("import sys, relharq, relharq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout.strip() == "[]"


# prints the scipy modules loaded in the interpreter once the code before it ran
LOADED_SCIPY = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def fresh_interpreter(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)


def test_the_package_does_not_import_scipy():
    # scipy.special is loaded by the first Rician cdf or ppf, not by the import
    proc = fresh_interpreter("import relharq, relharq.cli; " + LOADED_SCIPY)
    assert proc.stdout.strip() == "[]"


def test_simulate_jobs_load_no_scipy(tmp_path):
    # Monte Carlo sampling is numpy only, a Rician model included, and so are
    # the pool threads that run its 4 batches at 2 workers
    ltsc = tmp_path / "ltsc.cfg"
    ltsc.write_text(BASE + "mc.batch = 1000\n", encoding="utf-8")
    stsc = tmp_path / "stsc.cfg"
    stsc.write_text(BASE.replace("regime = ltsc", "regime = stsc")
                    .replace("compression = adaptive", "compression = constant")
                    .replace("fading_S.dist = rayleigh", "fading_S.dist = rician")
                    + "fading_S.K = 2.0\nmc.batch = 1000\n", encoding="utf-8")
    jobs = [["simulate", "--config", str(cfg), "--out", str(tmp_path / f"{cfg.stem}{workers}"),
             "--workers", workers] for cfg in (ltsc, stsc) for workers in ("1", "2")]
    proc = fresh_interpreter(f"import relharq.cli; "
                             f"print([relharq.cli.main(argv) for argv in {jobs!r}]); "
                             + LOADED_SCIPY)
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0]", "[]"]
    for job in ("ltsc1", "ltsc2", "stsc1", "stsc2"):
        assert (tmp_path / job / "simulate.csv").is_file()


def test_one_quadrature_default():
    # every closed-form entry point defaults to the config's quad.n, and the
    # per-regime spellings with defaults of their own are gone
    quad_n = config.parse_config_text("")["quad.n"]
    for fn in (optimize.throughput, optimize.optima, optimize.optimize_no_lcsit,
               optimize.optimize_lcsit):
        assert inspect.signature(fn).parameters["quad_n"].default == quad_n, fn.__name__
    n = inspect.signature(stsc.slot1_grid).parameters["n"]
    assert n.default is inspect.Parameter.empty
    removed = {"probability_table", "throughput_ltsc", "stsc_table", "throughput_stsc"}
    assert removed.isdisjoint(relharq.__all__)


def calls(tree, name):
    """The calls in tree of a function or method named name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]


def package_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]


def test_one_loop_over_sweep_points():
    # every job and figure reaches its sweep points through cli._write_sweep
    module = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    writer = next(node for node in module.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write_sweep")
    sweeps = len(calls(writer, "sweep_values"))
    assert sweeps and len(calls(module, "sweep_values")) == sweeps


def test_one_per_block_evaluator():
    # every evaluator's block gives its regime and backend as per-node (E[R], E[L]),
    # so the optimizer calls the simulator only through _MonteCarlo.report
    module = ast.parse((SRC / "optimize.py").read_text(encoding="utf-8"))
    evaluator = next(node for node in module.body
                     if isinstance(node, ast.ClassDef) and node.name == "_MonteCarlo")
    report = next(node for node in evaluator.body
                  if isinstance(node, ast.FunctionDef) and node.name == "report")
    assert len(calls(module, "estimate")) == len(calls(report, "estimate")) == 1
    functions = [node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)]
    assert "_node_block" not in {fn.name for fn in functions}
    params = {arg.arg for fn in functions for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
    assert "visit" not in params


def test_one_regime_and_backend_switch():
    # the optimizer chooses between the LTSC and STSC closed forms and the
    # simulator once: one comparison on channel_regime and one on backend
    module = ast.parse((SRC / "optimize.py").read_text(encoding="utf-8"))
    compared = [getattr(side, "attr", getattr(side, "id", None))
                for node in ast.walk(module) if isinstance(node, ast.Compare)
                for side in (node.left, *node.comparators)]
    assert compared.count("channel_regime") == compared.count("backend") == 1


def test_one_row_rule():
    # the rows a lattice block forms are chosen in one place: only _scan applies
    # the row bound and asks the evaluator for a block
    trees = package_trees()
    scan = next(node for tree in trees for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_scan")
    for name in ("_reaches", "block"):
        assert len(calls(scan, name)) == sum(len(calls(tree, name)) for tree in trees) == 1


def test_one_thread_pool():
    # work runs on threads in one place: fading._on_threads, on the one _POOL
    trees = package_trees()
    helper = next(node for tree in trees for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_on_threads")
    pools = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and calls(node.value, "ThreadPoolExecutor")]
    assert [target.id for node in pools for target in node.targets] == ["_POOL"]
    assert sum(len(calls(tree, "ThreadPoolExecutor")) for tree in trees) == 1
    submits = [node for tree in trees for node in calls(tree, "submit")]
    assert len(submits) == len(calls(helper, "submit")) == 1
    assert ast.unparse(submits[0].func) == "_POOL.submit"
    assert not any(calls(tree, "Thread") for tree in trees)


def test_on_threads_callers():
    # two things run on threads: a large Rician cdf's slabs and Monte Carlo batches
    callers = {(path.stem, node.name) for path in sorted(SRC.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name != "_on_threads"
               and any(calls(stmt, "_on_threads") for stmt in node.body)}
    assert callers == {("fading", "_rician_cdf"), ("simulate", "estimate")}


def test_stsc_leaves_threads_to_fading():
    # G's cdf sum is one cdf call: stsc names no thread helper, split size or scipy
    tree = ast.parse(pathlib.Path(stsc.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"_on_threads", "SPLIT_POINTS", "_POOL"}
    assert not any(name and name.split(".")[0] == "scipy" for name in names)


def test_stsc_builds_on_the_node_grid():
    # one builder of a scenario's D nodes, gain and offset for both closed forms,
    # and side_quantities gives node_tables' layout without restacking entries
    tree = ast.parse(pathlib.Path(stsc.__file__).read_text(encoding="utf-8"))
    assert not calls(tree, "conservative_gain") and not calls(tree, "threshold_offset")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "quantity_tables" not in functions
    assert not any(isinstance(node, ast.Attribute) and node.attr == "repeat"
                   for node in ast.walk(tree))
    assert calls(functions["slot1_grid"], "node_grid")
    fields = {field.name for field in dataclasses.fields(stsc.Slot1Grid)}
    assert "node" in fields and fields.isdisjoint({"d1", "wd", "a1", "c"})


BLAS_JOBS = ("stsc-optimize", "stsc-analytic-interference", "ltsc-optimize-lcsit")


def test_blas_threads_move_no_golden_byte(tmp_path):
    # OpenBLAS reads its thread count once, as numpy loads: each count runs the
    # golden jobs whose matmuls and gemvs it could reach in a fresh interpreter
    code = ("import pathlib, sys, test_golden\n"
            f"for job in {BLAS_JOBS!r}:\n"
            "    test_golden.run_job(job, pathlib.Path(sys.argv[1]))\n")
    path = os.pathsep.join([str(SRC.parent), str(pathlib.Path(__file__).parent)])
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
        csvs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))})
    assert len(csvs[0]) == len(BLAS_JOBS) and csvs[0] == csvs[1]


def test_analytic_job_calls_no_fading_method_on_a_pool_thread(monkeypatch):
    # a Rician-S STSC tuple at quad.n 64, whose G chunks hold up to 262,144
    # pairs: the cdf slabs run on the pool, yet every FadingModel method, and
    # so every traced span, runs on the calling thread
    submits, threads = counted_submits(monkeypatch), set()

    def on_caller(method):
        def recording(*args, **kwargs):
            threads.add(threading.current_thread())
            return method(*args, **kwargs)
        return recording

    for name in ("cdf", "cdf_strict", "ppf", "sample"):
        monkeypatch.setattr(FadingModel, name, on_caller(getattr(FadingModel, name)))
    cfg = SystemConfig(power=1.0, backhaul_capacity=1.5, max_rounds=2,
                       model_d=FadingModel("rician", 10.0, rician_k=2.0),
                       model_s=FadingModel("rician", 1.0, rician_k=1.0), channel_regime="stsc")
    report = optimize.throughput(cfg, RatePolicy.constant(1.0, 0.5, 0.9), quad_n=64)
    assert 0 < report.eta < 1.5
    assert submits and threads == {threading.current_thread()}


def test_feasibility_violation_raises_and_exits_3(tmp_path, monkeypatch):
    run_batch = simulate._run_batch

    def violating_batch(*args, **kwargs):
        out = run_batch(*args, **kwargs)
        out["violations"] += 1
        return out

    monkeypatch.setattr(simulate, "_run_batch", violating_batch)
    assert run(tmp_path, "simulate") == 3


def test_decreasing_dinkelbach_iterate_raises_and_exits_3(tmp_path, monkeypatch):
    # after the incumbent, every per-node re-evaluation loses almost all reward
    per_node = optimize._Ltsc.per_node
    per_node_calls = []

    def shrinking(self, r1, r2, alpha, *side):
        reward, length = per_node(self, r1, r2, alpha, *side)
        if np.ndim(r1) == 1:
            per_node_calls.append(1)
            if len(per_node_calls) > 1:
                reward = reward * 1e-3
        return reward, length

    monkeypatch.setattr(optimize._Ltsc, "per_node", shrinking)
    assert run(tmp_path, "optimize", "csi = lcsit\n") == 3
    assert len(per_node_calls) == 2
