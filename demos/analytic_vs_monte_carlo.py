"""Cross-check the closed-form outage tables against the event simulator.

The layer-1 outage chain is exact, so the gap there is pure Monte Carlo
noise.  The layer-2 entries use the small-leftover-power approximation
(abar*P << 1), so their gap has a bias floor that grows with abar*P; the
second scenario makes that visible on purpose.
"""

import numpy as np

from relharq import (CompressionPolicy, FadingModel, RatePolicy, SystemConfig,
                     estimate, throughput)

SESSIONS = 200_000


def report(label, cfg, policy):
    analytic = throughput(cfg, policy, quad_n=256)
    table = analytic.table
    mc = estimate(cfg, policy, CompressionPolicy("constant"),
                  n_sessions=SESSIONS, master_seed=7)
    abar_p = (1.0 - float(policy.alpha)) * cfg.power
    print(f"\n=== {label} (abar*P = {abar_p:.3f}) ===")
    print(f"{'quantity':<10} {'k':>2} {'analytic':>10} {'monte carlo':>12} "
          f"{'gap':>9} {'sigma':>9}")
    for name in ("p1_out", "p2_out", "p2_dec"):
        ana, emp = getattr(table, name), getattr(mc.table, name)
        for k in range(cfg.max_rounds):
            se = mc.table.std_errors[name][k]
            print(f"{name:<10} {k + 1:>2} {ana[k]:>10.5f} {emp[k]:>12.5f} "
                  f"{abs(ana[k] - emp[k]):>9.5f} {se:>9.5f}")
    print(f"eta: analytic path E[R]/E[L] {analytic.eta:.5f} vs empirical "
          f"{mc.eta:.5f} +/- {mc.eta_std_error:.5f}")


cfg = SystemConfig(
    power=1.0, backhaul_capacity=1.5, max_rounds=3,
    model_d=FadingModel("rician", mean_power=1.5, rician_k=2.0),
    model_s=FadingModel("rayleigh", mean_power=1.0),
)

# well inside the approximation regime: abar*P = 0.03
report("leftover power small", cfg, RatePolicy.constant(1.2, 0.1, 0.97))

# abar*P = 0.25: layer-1 rows stay exact, layer-2 rows show the regime break
report("leftover power large", cfg, RatePolicy.constant(0.8, 0.45, 0.75))
