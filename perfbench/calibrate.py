"""A fixed calibration kernel that measures how fast the host runs right now.

The reference host is shared, and its speed drifts by up to a quarter over
minutes while the program's work stays the same.  The worker times this
kernel before and after every job; a job's time divided by the kernel's time
around it, times REFERENCE_S, is the job's time rescaled to the reference
host's usual speed.  The kernel mixes what relharq spends its time on: a
Rician cdf through scipy's ncx2, numpy elementwise passes, a cumulative sum,
a sort and normal sampling over half a million doubles, and interpreted
Python.  It depends on nothing in src/, so a change to the program cannot
change it.

It runs in a helper process of its own (`Calibrator`), so its buffers add
nothing to the worker's peak RSS and the worker's heap never holds them.

    python3 perfbench/calibrate.py     # time the kernel 50 times, print the median
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

# Median kernel wall time on the reference host (2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1): sets the scale of the *_ref
# metrics, so that they read close to plain seconds there.
REFERENCE_S = 0.055


def _kernel_setup():
    import numpy as np
    from scipy import stats

    points = np.random.default_rng(0).random(4000) * 8.0
    values = np.random.default_rng(1).random(500_000)
    buf_a, buf_b = np.empty_like(values), np.empty_like(values)

    def kernel() -> None:
        stats.ncx2.cdf(points, df=2, nc=2.0)
        for _ in range(4):
            np.negative(values, out=buf_a)
            np.exp(buf_a, out=buf_a)
            np.log1p(values, out=buf_b)
            np.multiply(buf_a, buf_b, out=buf_b)
            np.cumsum(buf_b, out=buf_a)
            buf_b.sort()
        np.random.default_rng(2).standard_normal(out=buf_a)
        acc = 0
        for i in range(60_000):
            acc += i * i

    return kernel


def _time(kernel) -> tuple:
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


class Calibrator:
    """The kernel in a helper process: measure() returns its (wall, cpu) seconds."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--serve"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> tuple:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited ({self._proc.poll()})")
        wall, cpu = map(float, line.split())
        return wall, cpu

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()


def _serve() -> None:
    kernel = _kernel_setup()
    for _ in range(3):
        kernel()
    for _ in sys.stdin:
        wall, cpu = _time(kernel)
        sys.stdout.write(f"{wall!r} {cpu!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        kernel = _kernel_setup()
        for _ in range(3):
            kernel()
        walls = sorted(_time(kernel)[0] for _ in range(50))
        print(f"calibration kernel: median {walls[25] * 1e3:.2f} ms, "
              f"min {walls[0] * 1e3:.2f} ms over 50 runs")
