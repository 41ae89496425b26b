"""Opportunistic relay compression after a layer-1-only ACK.

A layer-1 ACK without a layer-2 ACK tells the relay the side information was
at least s_hat, so it can quantize more finely for the retransmissions while
the decompression stays feasible (checked per event by the simulator).  The
advantage should grow with the Rician factor K: better fading states occur
more often and the conservative quantizer wastes more of them.
"""

from relharq import (CompressionPolicy, FadingModel, GridSpec, SystemConfig,
                     estimate, optima)

GRID = GridSpec(r_max=6.0, r_step=0.1, alpha_step=0.05, refine_rounds=2)
QUAD_N = 32
SESSIONS = 150_000

print(f"{'K':>4} {'adaptive':>10} {'constant':>10} {'gap':>8} "
      f"{'adapted sessions':>17}")
for k_factor in (0.0, 2.0, 5.0, 10.0):
    cfg = SystemConfig(
        power=1.0, backhaul_capacity=2.0, max_rounds=2,
        model_d=FadingModel("rician", mean_power=100.0, rician_k=k_factor),
        model_s=FadingModel("rayleigh", mean_power=100.0),
    )
    etas = {}
    adapted = 0
    for kind in ("adaptive", "constant"):
        comp = CompressionPolicy(kind)
        best = optima(cfg, ["bc"], comp, grid_spec=GRID, quad_n=QUAD_N)["bc"]
        rep = estimate(cfg, best.policy, comp, n_sessions=SESSIONS,
                       master_seed=3)  # common seed: the gap is paired
        etas[kind] = rep.eta
        if kind == "adaptive":
            adapted = rep.adaptation_count
    print(f"{k_factor:>4.0f} {etas['adaptive']:>10.4f} {etas['constant']:>10.4f} "
          f"{etas['adaptive'] - etas['constant']:>8.4f} "
          f"{adapted:>12} / {SESSIONS}")
