"""Re-measure the ROADMAP item-1 layer baselines once, in one process.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/baselines.py

Prints one line per baseline (measured value next to the ROADMAP figure) and
writes them to perfbench/_work/baselines.json.  Takes about two minutes on a
2-core host; BASELINES.md records one such run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from relharq import (CompressionPolicy, FadingModel, GridSpec, RatePolicy, SystemConfig,
                     estimate, optimize_lcsit, optimize_no_lcsit)

FIGURE_GRID = GridSpec(r_max=6.0, r_step=0.1, alpha_step=0.05, refine_rounds=3)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _mc_rate(kind: str, workers: int, sessions: int = 2_000_000) -> float:
    # the criterion-10 scenario: LTSC, T = 3
    cfg = SystemConfig(1.0, 1.5, 3, FadingModel("rician", 10 ** 0.6, 2.0),
                       FadingModel("rayleigh", 1.0))
    policy = RatePolicy.constant(0.9, 0.5, 0.95)
    return sessions / _timed(lambda: estimate(cfg, policy, CompressionPolicy(kind),
                                              sessions, 21, workers=workers))


def _cdf_seconds(model: FadingModel, points: int = 1_000_000) -> float:
    x = np.linspace(0.0, 8.0 * model.mean_power, points)
    model.cdf(x[:1000])  # first-call set-up outside the timing
    return min(_timed(lambda: model.cdf(x)) for _ in range(3))


def _figure_cfg(T: int, regime: str = "ltsc", rho_db: float = 10.0, cmax: float = 1.0):
    rho = 10 ** (rho_db / 10)
    s_rho = rho if regime == "stsc" else 1.0
    return SystemConfig(1.0, cmax, T, FadingModel("rician", rho, 0.0),
                        FadingModel("rayleigh", s_rho), channel_regime=regime)


def main() -> None:
    const = CompressionPolicy("constant")
    rows = [
        ("mc_ltsc_T3_constant_1worker_sessions_per_s", 2.5e6, _mc_rate("constant", 1)),
        ("mc_ltsc_T3_adaptive_1worker_sessions_per_s", 1.2e6, _mc_rate("adaptive", 1)),
        ("mc_ltsc_T3_constant_2workers_sessions_per_s", 3.0e6, _mc_rate("constant", 2)),
        ("mc_ltsc_T3_adaptive_2workers_sessions_per_s", 2.0e6, _mc_rate("adaptive", 2)),
        ("cdf_rician_K1_s_per_1e6_points", 0.42, _cdf_seconds(FadingModel("rician", 1.0, 1.0))),
        ("cdf_rayleigh_s_per_1e6_points", 0.017, _cdf_seconds(FadingModel("rayleigh", 1.0))),
        ("optimize_no_lcsit_ltsc_T2_figure_grid_n32_s", 0.48, _timed(
            lambda: optimize_no_lcsit(_figure_cfg(2), const, grid_spec=FIGURE_GRID, quad_n=32))),
        ("optimize_no_lcsit_ltsc_T6_figure_grid_n32_s", 3.0, _timed(
            lambda: optimize_no_lcsit(_figure_cfg(6), const, grid_spec=FIGURE_GRID, quad_n=32))),
        ("optimize_no_lcsit_stsc_figure_grid_n32_s", 31.8, _timed(
            lambda: optimize_no_lcsit(_figure_cfg(2, "stsc", cmax=5.0), const,
                                      grid_spec=FIGURE_GRID, quad_n=32))),
        ("optimize_lcsit_64_nodes_default_grid_s", 36.7, _timed(
            lambda: optimize_lcsit(_figure_cfg(2), const, grid_spec=GridSpec(),
                                   n_nodes=64, quad_n=64))),
    ]
    for name, roadmap, measured in rows:
        print(f"{name:<48} roadmap {roadmap:>10.4g}  measured {measured:>10.4g}  "
              f"ratio {measured / roadmap:.2f}")
    out = Path(__file__).resolve().parent / "_work" / "baselines.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({n: {"roadmap": r, "measured": m} for n, r, m in rows}, indent=1),
                   encoding="utf-8")


if __name__ == "__main__":
    main()
