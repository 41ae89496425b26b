"""Exact T=2 probabilities and throughput, short-term static channel.

Gains (D_t, S_t) are redrawn i.i.d. each slot, so the two-slot events factor
through the slot-1 pair (D1, S1) and a slot-2 threshold on S2:

  p1_out(2)  layer 1 misses both slots: S1 below the one-slot threshold and
             S2 below the threshold of the residual rate h = R1 - I1(D1,S1)
  phi        layer 1 done in slot 1, layer 2 misses its BC credit and the
             slot-2 single-layer window
  gamma      layer 1 done in slot 2, layer 2's two BC credits fall short:
             S2 in [layer-1 residual threshold, layer-2 residual threshold)
  p2_out(2) = p1_out(2) + phi + gamma;  p2_dec(1) from the two one-slot
             thresholds; the rest of the table follows by counting.

Everything is evaluated on one shared grid: quantile nodes for D1 (reused for
D2) and quantile bins for S1, with the slot-1 indicator masses computed exactly
per bin (partial masses at the threshold-crossing bins) and the smooth inner
S2/D2 expectations evaluated at bin nodes.  All table identities then hold
pointwise on the grid, and the S1 quadrature error stays quadratic in the bin
width because every inner expectation is continuous across its gate.

r1/r2 accept vectors (the optimizer's tuple grids); alpha stays scalar per call.

Evaluation rule: the slot-2 threshold separates.  At residual rate res and
D2 node j it is u(res) - c_j, with u = slot_threshold(res, 1, p_sig, p_int, 0, 1)
per (d1, s1) cell and c = a/b per node, so each inner expectation over
(D2, S2) is one monotone function of one scalar, G(u) = sum_j w_j
Pr[S2 < u - c_j] (`node_cdf_sum`): q_miss = G(u1), phi_miss = G(u_phi), and,
F being monotone, gamma's inner sum is G(max(u1, u2)) - G(u1), so
p1_out(2) + gamma = sum m_fail max(G(u1), G(u2)).  G is taken only on the
support: for G(u1) the (r1, d1, s1) cells with nonzero m_fail; for G(u_phi)
the (r2, d1, s1) cells where F2 exceeds the smallest F1, outside which m_mid is
0 for every r1; for G(u2) the cells where u2 exceeds some live u1.  Elsewhere
G stays 0 and meets a zero mass or loses the max, so an inner NaN off the
support reaches no total.  The (r1, r2, d1, s1) masses are formed a few r1
rows at a time, in blocks of about BLOCK_CELLS cells that stay in cache.
"""

from __future__ import annotations

import numpy as np

from .channel import (RatePolicy, SystemConfig, _split_gain, check_supported,
                      conservative_gain, mutual_info, slot_threshold)
from .fading import FadingModel, cdf_of_max, quantize
from .tables import ProbabilityTable, ThroughputReport, expected_length

DEFAULT_STSC_N = 128
BLOCK_CELLS = 2**16  # 512 KB per block array, a few of which fit a 2 MB L2 cache


def node_cdf_sum(model: FadingModel, c, w, chunk_cells: int = 1_000_000):
    """G(u) = sum_j w_j Pr[S < u - c_j] as a function of a 1-D array u.

    Rayleigh S has a closed form over the sorted c: with k = #{c_j < u},
    G(u) = W_k - S_k exp(-(u - c_{k-1}) / rho), where W_k = w_0 + ... + w_{k-1}
    and S_k = sum_{j<k} w_j exp(-(c_{k-1} - c_j) / rho) is a running sum whose
    exponents are all <= 0, so nothing overflows; k = 0 gives 0.  Point-mass S
    gives the prefix weight W_k with k = #{j : u - c_j > value}, the nodes whose
    indicator is 1.  Rician S, and Rayleigh S with a non-finite c, sum the cdf
    over the nodes.  Both hold at most chunk_cells (u, node) pairs at a time.
    """
    order = np.argsort(c, kind="stable")
    c, w = np.asarray(c, dtype=float)[order], np.asarray(w, dtype=float)[order]
    W = np.concatenate(([0.0], np.cumsum(w)))
    step = max(1, chunk_cells // len(c))

    def chunked(rows):  # rows maps an (m, n) block of u - c to m values of G
        def g(u):
            out = np.empty(u.shape)
            for i in range(0, len(u), step):
                out[i : i + step] = rows(u[i : i + step, None] - c)
            return out
        return g

    if model.kind == "pointmass":
        return chunked(lambda x: W[np.sum(x > model.point_value, axis=1)])
    if model.kind == "rician" or not np.isfinite(c).all():
        return chunked(lambda x: model.cdf_strict(x) @ w)
    rho = model.mean_power
    decay = np.exp(-np.diff(c, prepend=c[0]) / rho)
    S = np.zeros_like(W)
    for j in range(len(c)):
        S[j + 1] = S[j] * decay[j] + w[j]

    def g(u):
        k = np.searchsorted(c, u, side="left")  # NaN sorts last: k = n, G = NaN
        on = k > 0
        out = np.zeros(u.shape)
        out[on] = W[k[on]] - S[k[on]] * np.exp((c[k[on] - 1] - u[on]) / rho)
        return out
    return g


def stsc_quantities(cfg: SystemConfig, r1_vec, r2_vec, alpha: float, n: int = DEFAULT_STSC_N,
                    chunk_cells: int = 1_000_000):
    """The four independent table entries for every (r1, r2) pair at one alpha.

    Returns dict of (Q1, Q2) arrays: p1_out_1, p1_out_2, p2_dec_1, p2_out_2.
    The largest arrays are (q, n, n) per rate axis; a Rician G holds at most
    max(chunk_cells, n) (cell, D2 node) pairs at once.
    """
    check_supported(cfg, regime="stsc")
    P, cmax, s_min = cfg.power, cfg.backhaul_capacity, cfg.s_min
    ap, abp = alpha * P, (1.0 - alpha) * P
    p_int2 = ap if cfg.bc_layer2_interference else 0.0

    r1 = np.atleast_1d(np.asarray(r1_vec, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2_vec, dtype=float))
    q1, q2 = len(r1), len(r2)

    grid_d, grid_s = quantize(cfg.model_d, n), quantize(cfg.model_s, n)
    d1, wd, s1 = grid_d.nodes, grid_d.weights, grid_s.nodes
    a1 = conservative_gain(d1, s_min, P, cmax)
    # D2 is i.i.d. with D1: G sums over the same nodes, each at its c = a/b
    G = node_cdf_sum(cfg.model_s, a1 / _split_gain(a1, d1), wd, chunk_cells)

    Fs1 = cfg.model_s.cdf_strict
    # S1 bin boundaries and the exact slot-1 indicator masses per bin.  Bin
    # masses come from the cdf at the edges (not the nominal quantile weights)
    # so the three-way partition telescopes to total mass 1 exactly.
    lo = np.concatenate(([-np.inf], grid_s.edges))
    hi = np.concatenate((grid_s.edges, [np.inf]))
    F_lo = Fs1(lo)
    w_bin = Fs1(hi) - F_lo

    def total(x):
        return np.einsum("d,...ds->...", wd, x)

    lam1 = slot_threshold(r1[:, None], 1, ap, abp, a1, d1)          # (q1, nd)
    lam2 = slot_threshold(r2[:, None], 1, abp, p_int2, a1, d1)      # (q2, nd)

    def cdf_in_bins(c):
        # Pr[S1 < c] with c clipped to each bin; c broadcasts against the bin axis
        return Fs1(np.clip(c[..., None], lo, hi))

    F1, F2 = cdf_in_bins(lam1), cdf_in_bins(lam2)                   # (q1|q2, nd, ns)
    m_fail, m_below2 = F1 - F_lo, F2 - F_lo                         # mass S1 < lam1 | lam2

    # per-(d1, s1-node) slot-1 quantities, and the slot-2 thresholds u at c = 0
    i1 = mutual_info(ap, abp, a1[:, None], s1, d1[:, None])         # (nd, ns)
    i2 = mutual_info(abp, p_int2, a1[:, None], s1, d1[:, None])     # (nd, ns)
    r2p = r2[:, None, None] - i2                                    # (q2, nd, ns)
    u1 = slot_threshold(r1[:, None, None] - i1, 1, ap, abp, 0.0, 1.0)  # (q1, nd, ns)
    u2 = slot_threshold(r2p, 1, abp, p_int2, 0.0, 1.0)              # (q2, nd, ns)
    u_phi = slot_threshold(r2p, 1, P, 0.0, 0.0, 1.0)                # (q2, nd, ns)

    def on_support(u, cells):
        out = np.zeros(u.shape)
        out[cells] = G(u[cells])
        return out

    fails = m_fail != 0
    u1_live = np.where(fails, u1, np.inf).min(axis=0)               # NaN stays NaN
    g1 = on_support(u1, fails)
    g2 = on_support(u2, fails.any(axis=0) & ~(u2 <= u1_live))
    # m_mid below is F2 - F1 where lam2 > lam1, else 0; F is monotone, so it is
    # nonzero only where F2 exceeds the smallest F1
    g_phi = on_support(u_phi, ~(F2 <= F1.min(axis=0)))

    p1_out_1 = np.repeat(total(m_fail)[:, None], q2, axis=1)        # (q1, q2)
    p1_out_2 = np.repeat(total(m_fail * g1)[:, None], q2, axis=1)
    p2_dec_1, p2_out_2 = np.empty((q1, q2)), np.empty((q1, q2))
    step = max(1, BLOCK_CELLS // m_below2.size)                     # r1 rows per block
    for i in range(0, q1, step):
        rows = slice(i, i + step)
        # clip is monotone, so F(clip(max(lam1, lam2))) is one of F1, F2
        m_below_max = cdf_of_max(lam1[rows, None, :, None], lam2[None, :, :, None],
                                 m_fail[rows, None], m_below2[None])
        m_mid = m_below_max - m_fail[rows, None]                    # mass lam1 <= S1 < lam2
        p2_dec_1[rows] = total(np.subtract(w_bin, m_below_max, out=m_below_max))
        # G(max(u1, u2)) = max(G(u1), G(u2)); the max of the values keeps gamma >= 0
        g_max = np.maximum(g1[rows, None], g2[None], out=m_below_max)
        g_max *= m_fail[rows, None]
        m_mid *= g_phi
        p2_out_2[rows] = total(g_max) + total(m_mid)                # p1_out_2 + gamma + phi

    return {"p1_out_1": p1_out_1, "p1_out_2": p1_out_2, "p2_dec_1": p2_dec_1,
            "p2_out_2": p2_out_2}


def stsc_table(cfg: SystemConfig, policy: RatePolicy, n: int = DEFAULT_STSC_N) -> ProbabilityTable:
    check_supported(cfg, per_node=policy.mode == "lcsit", regime="stsc")
    r1, r2, alpha = float(policy.r1), float(policy.r2), float(policy.alpha)
    q = {k: float(v[0, 0]) for k, v in stsc_quantities(cfg, [r1], [r2], alpha, n).items()}
    return ProbabilityTable(
        p1_out=np.array([q["p1_out_1"], q["p1_out_2"]]),
        p2_out=np.array([1.0 - q["p2_dec_1"], q["p2_out_2"]]),
        p2_dec=np.array([q["p2_dec_1"], 1.0 - q["p2_dec_1"] - q["p2_out_2"]]),
    )


def throughput_stsc(cfg: SystemConfig, policy: RatePolicy, n: int = DEFAULT_STSC_N) -> ThroughputReport:
    table = stsc_table(cfg, policy, n)
    er = float(policy.r1) * (1.0 - table.p1_out[1]) + float(policy.r2) * (1.0 - table.p2_out[1])
    el = expected_length(table.p2_dec, float(table.p2_out[1]), 2)
    return ThroughputReport(eta=er / el, expected_reward=float(er), expected_length=float(el),
                            table=table)
