"""The public surface: what `relharq` exports, and what the benchmark imports from it."""

import ast
import importlib.util
import inspect
import pathlib
import sys
import types

import relharq
from relharq import config, optimize, tables

BASELINES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "baselines.py"


def test_every_export_resolves():
    # a deleted helper must not leave a stale name in the public API
    assert [name for name in relharq.__all__ if not hasattr(relharq, name)] == []
    assert relharq.ConfigError is config.ConfigError is tables.ConfigError
    assert issubclass(relharq.ConfigError, ValueError)


def test_optimize_is_the_submodule():
    # a package-level function named optimize would shadow the module, so
    # `import relharq.optimize as opt` would bind the function
    import relharq.optimize as opt

    assert isinstance(optimize, types.ModuleType)
    assert opt is optimize is sys.modules["relharq.optimize"]
    assert relharq.optima is optimize.optima


def test_benchmark_baselines_bind_to_the_kept_views(monkeypatch):
    # perfbench/baselines.py imports the optimizer views from the package;
    # load it without running it or writing its bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_baselines", BASELINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    views = {"optimize_lcsit": optimize.optimize_lcsit,
             "optimize_no_lcsit": optimize.optimize_no_lcsit}
    calls = [node for node in ast.walk(ast.parse(BASELINES.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in views]
    assert {call.func.id for call in calls} == set(views)
    for call in calls:
        assert getattr(module, call.func.id) is views[call.func.id]
        # every call shape binds: its positional count and keyword names
        inspect.signature(views[call.func.id]).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords})
