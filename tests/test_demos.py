"""Every script under demos/ runs to exit 0 against the source tree."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "analytic_vs_monte_carlo":
        # each scenario ends with the analytic eta next to the Monte Carlo one
        eta = [line for line in proc.stdout.splitlines() if line.startswith("eta:")]
        assert len(eta) == 2
        for line in eta:
            assert re.search(r"(\d\.\d+) vs empirical (\d\.\d+) \+/- \d\.\d+$", line), line
