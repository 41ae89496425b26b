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

Evaluation rule: the S2 cdf inside the inner (D2, S2) expectations is
evaluated only on the (d1, s1) cells whose outer mass is nonzero for some
tuple (m_fail for q_miss and gamma, m_mid for phi).  Elsewhere the
expectations are 0 and multiply a zero mass, so every total sees the same
addends.  The layer-1 residual cdf serves both q_miss and gamma's lower edge;
the layer-2 residual cdf is evaluated once per cell.  Cells go in runs of d1
rows, and chunk_cells bounds each such support chunk's temporaries.  The D2
sum runs on dense (ns, nd2) blocks, zero off the support, because a BLAS
matrix-vector product may sum a row differently when the block shape changes.
Gamma's max(cdf2 - cdf1, 0) is formed only on the (r1, r2, d1) blocks holding
a live row: one where m_fail is nonzero and max(cdf2) > min(cdf1) over D2, or
either is NaN.  Every other row integrates to exactly +0.0 or meets a zero
m_fail, so those blocks stay 0 and the totals see the same addends.  The live
blocks are gathered in batches of at most chunk_cells / 8 cells.
"""

from __future__ import annotations

import numpy as np

from .channel import RatePolicy, SystemConfig, conservative_gain, mutual_info, slot_threshold
from .fading import cdf_of_max, quantize
from .tables import ProbabilityTable, ThroughputReport, expected_length

DEFAULT_STSC_N = 128


def _check_stsc(cfg: SystemConfig):
    if cfg.channel_regime != "stsc":
        raise ValueError("STSC analytics require channel_regime='stsc'")
    if cfg.max_rounds != 2:
        raise ValueError("STSC closed forms cover T=2 only (the simulator handles other T)")


def stsc_quantities(cfg: SystemConfig, r1_vec, r2_vec, alpha: float, n: int = DEFAULT_STSC_N,
                    chunk_cells: int = 16_000_000):
    """The four independent table entries for every (r1, r2) pair at one alpha.

    Returns dict of (Q1, Q2) arrays: p1_out_1, p1_out_2, p2_dec_1, p2_out_2.
    The residual cdfs of one support chunk hold at most
    max(chunk_cells, (q1 + q2) n^2) cells together, each gathered gamma batch
    at most max(chunk_cells / 8, n^2); the outer masses are (q1, q2, n, n).
    """
    _check_stsc(cfg)
    P, cmax, s_min = cfg.power, cfg.backhaul_capacity, cfg.s_min
    ap, abp = alpha * P, (1.0 - alpha) * P
    p_int2 = ap if cfg.bc_layer2_interference else 0.0

    r1 = np.atleast_1d(np.asarray(r1_vec, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2_vec, dtype=float))
    q1, q2 = len(r1), len(r2)

    grid_d = quantize(cfg.model_d, n)
    grid_s = quantize(cfg.model_s, n)
    d1 = grid_d.nodes
    wd = grid_d.weights
    s1 = grid_s.nodes
    nd, ns = len(d1), len(s1)
    a1 = conservative_gain(d1, s_min, P, cmax)
    d2, wd2, a2 = d1, wd, a1  # D2 is i.i.d. with D1
    nd2 = len(d2)

    Fs1 = cfg.model_s.cdf_strict
    Fs2 = cfg.model_s.cdf_strict

    # S1 bin boundaries and the exact slot-1 indicator masses per bin.  Bin
    # masses come from the cdf at the edges (not the nominal quantile weights)
    # so the three-way partition telescopes to total mass 1 exactly.
    lo = np.concatenate(([-np.inf], grid_s.edges))
    hi = np.concatenate((grid_s.edges, [np.inf]))
    F_lo = Fs1(lo)
    w_bin = Fs1(hi) - F_lo

    lam1 = slot_threshold(r1[:, None], 1, ap, abp, a1, d1)          # (q1, nd)
    lam2 = slot_threshold(r2[:, None], 1, abp, p_int2, a1, d1)      # (q2, nd)

    def cdf_in_bins(c):
        # Pr[S1 < c] with c clipped to each bin; c broadcasts against the bin axis
        return Fs1(np.clip(c[..., None], lo, hi))

    F1, F2 = cdf_in_bins(lam1), cdf_in_bins(lam2)                   # (q1|q2, nd, ns)
    m_fail = F1 - F_lo                                              # mass S1 < lam1
    # clip is monotone, so F(clip(max(lam1, lam2))) is one of F1, F2
    m_below_max = cdf_of_max(lam1[:, None, :, None], lam2[None, :, :, None],
                             F1[:, None], F2[None]) - F_lo          # (q1, q2, nd, ns)
    m_mid = m_below_max - m_fail[:, None]                           # mass lam1 <= S1 < lam2
    m_done = w_bin - m_below_max

    # per-(d1, s1-node) slot-1 quantities
    i1 = mutual_info(ap, abp, a1[:, None], s1, d1[:, None])         # (nd, ns)
    i2 = mutual_info(abp, p_int2, a1[:, None], s1, d1[:, None])     # (nd, ns)
    h = r1[:, None, None] - i1                                      # (q1, nd, ns)
    r2p = r2[:, None, None] - i2                                    # (q2, nd, ns)

    # smooth inner expectations over (D2, S2), on the support cells only
    def support_chunks(cells, cells_per_d1_row):
        # runs of d1 rows holding about chunk_cells, each with its support
        # cells as (local d1 row, s1 node) index arrays
        step = max(1, chunk_cells // cells_per_d1_row)
        for i in range(0, nd, step):
            rows = slice(i, min(i + step, nd))
            di, si = np.nonzero(cells[rows])
            if len(di):
                yield rows, di, si

    def residual_cdf(res, p_sig, p_int, di, si):
        # Pr[S2 < threshold(res)] at every D2 node: res (..., rows, ns) ->
        # (..., rows, ns, nd2), on the support cells and 0 elsewhere; dense, so
        # each D2 sum runs on the (ns, nd2) blocks of a full evaluation
        out = np.zeros(res.shape + (nd2,))
        out[..., di, si, :] = Fs2(slot_threshold(res[..., di, si, None], 1, p_sig, p_int,
                                                 a2, d2))
        return out

    # phi: layer 2 misses its slot-2 single-layer window; weighted by m_mid
    phi_miss = np.zeros((q2, nd, ns))
    for rows, di, si in support_chunks(np.any(m_mid != 0, axis=(0, 1)), q2 * ns * nd2):
        phi_miss[:, rows] = residual_cdf(r2p[:, rows], P, 0.0, di, si) @ wd2

    # q_miss (layer 1 misses slot 2) and gamma (S2 in [layer-1 residual
    # threshold, layer-2 BC residual threshold)), both weighted by m_fail.  The
    # layer-1 residual cdf serves both; the layer-2 one is evaluated once per cell.
    q_miss = np.zeros((q1, nd, ns))
    gam = np.zeros((q1, q2, nd, ns))
    fails = m_fail != 0
    batch = max(1, chunk_cells // (8 * ns * nd2))                   # gamma blocks per gather
    for rows, di, si in support_chunks(fails.any(axis=0), (q1 + q2) * ns * nd2):
        cdf1 = residual_cdf(h[:, rows], ap, abp, di, si)            # (q1, rows, ns, nd2)
        cdf2 = residual_cdf(r2p[:, rows], abp, p_int2, di, si)      # (q2, rows, ns, nd2)
        q_miss[:, rows] = cdf1 @ wd2
        # a (r1, r2, d1, s1) row reaches gamma unless max(cdf2 - cdf1, 0) is 0
        # at every D2 node or m_fail is 0 on it; NaN rows stay live
        live = ~(cdf2.max(axis=-1)[None] <= cdf1.min(axis=-1)[:, None])
        live &= fails[:, None, rows]
        bi, bj, bd = np.nonzero(live.any(axis=-1))
        for k in range(0, len(bi), batch):
            i, j, d = bi[k : k + batch], bj[k : k + batch], bd[k : k + batch]
            gap = cdf2[j, d]
            gap -= cdf1[i, d]
            np.maximum(gap, 0.0, out=gap)
            gam[i, j, rows.start + d] = gap @ wd2

    def total(x):
        return np.einsum("d,...ds->...", wd, x)

    p1_out_1 = total(m_fail)                                        # (q1,)
    p1_out_2 = total(m_fail * q_miss)                               # (q1,)
    p2_dec_1 = total(m_done)                                        # (q1, q2)
    phi = total(m_mid * phi_miss[None, :])                          # (q1, q2)
    gamma = total(m_fail[:, None] * gam)                            # (q1, q2)
    p2_out_2 = p1_out_2[:, None] + phi + gamma

    return {
        "p1_out_1": np.broadcast_to(p1_out_1[:, None], (q1, q2)).copy(),
        "p1_out_2": np.broadcast_to(p1_out_2[:, None], (q1, q2)).copy(),
        "p2_dec_1": p2_dec_1,
        "p2_out_2": p2_out_2,
    }


def _policy_tuple(policy: RatePolicy):
    if policy.mode != "no_lcsit":
        raise ValueError("STSC analytics cover single-tuple policies only")
    return float(policy.r1), float(policy.r2), float(policy.alpha)


def stsc_table(cfg: SystemConfig, policy: RatePolicy, n: int = DEFAULT_STSC_N) -> ProbabilityTable:
    r1, r2, alpha = _policy_tuple(policy)
    q = stsc_quantities(cfg, [r1], [r2], alpha, n)
    p1o1 = float(q["p1_out_1"][0, 0])
    p1o2 = float(q["p1_out_2"][0, 0])
    p2d1 = float(q["p2_dec_1"][0, 0])
    p2o2 = float(q["p2_out_2"][0, 0])
    return ProbabilityTable(
        p1_out=np.array([p1o1, p1o2]),
        p2_out=np.array([1.0 - p2d1, p2o2]),
        p2_dec=np.array([p2d1, 1.0 - p2d1 - p2o2]),
    )


def stsc_p1_out_2(cfg, policy, n: int = DEFAULT_STSC_N) -> float:
    return float(stsc_table(cfg, policy, n).p1_out[1])


def stsc_p2_out_2(cfg, policy, n: int = DEFAULT_STSC_N) -> float:
    return float(stsc_table(cfg, policy, n).p2_out[1])


def stsc_p2_dec_1(cfg, policy, n: int = DEFAULT_STSC_N) -> float:
    return float(stsc_table(cfg, policy, n).p2_dec[0])


def throughput_stsc(cfg: SystemConfig, policy: RatePolicy, n: int = DEFAULT_STSC_N) -> ThroughputReport:
    r1, r2, _ = _policy_tuple(policy)
    table = stsc_table(cfg, policy, n)
    er = r1 * (1.0 - table.p1_out[1]) + r2 * (1.0 - table.p2_out[1])
    el = expected_length(table.p2_dec, float(table.p2_out[1]), 2)
    return ThroughputReport(
        eta=er / el,
        expected_reward=float(er),
        expected_length=float(el),
        table=table,
        config_echo={"regime": "stsc", "policy_mode": policy.mode},
    )
