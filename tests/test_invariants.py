"""Runtime invariants raise real errors (which `python -O` keeps) and exit 3."""

import ast
import pathlib

import numpy as np

from relharq import cli, optimize, simulate

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
    node_reward_length = optimize.node_reward_length
    per_node_calls = []

    def shrinking(cfg, r1, r2, alpha, grid, comp):
        reward, length = node_reward_length(cfg, r1, r2, alpha, grid, comp)
        if np.ndim(r1) == 1:
            per_node_calls.append(1)
            if len(per_node_calls) > 1:
                reward = reward * 1e-3
        return reward, length

    monkeypatch.setattr(optimize, "node_reward_length", shrinking)
    assert run(tmp_path, "optimize", "csi = lcsit\n") == 3
    assert len(per_node_calls) == 2
