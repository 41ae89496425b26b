"""Closed-form outage/decode probabilities and throughput, long-term static channel.

Gains (D, S) are drawn once per session and frozen over all T slots.  Layer 1
decodes within k slots iff S >= x_k(D) where x_k is the k-slot threshold of the
BC-mode layer-1 rate.  Given a layer-1 decode at slot l, layer 2 accumulates
l BC slots of conditional MI plus (k-l) single-layer slots; under the small
abar*P approximation the BC credit per slot is (1/2)log2(c/b) with
c = b + abar*P*a, which turns "layer 2 decoded by slot k" into the threshold
event S >= thr_l(k).  Decode-by thresholds are cumulative-min'ed in k so the
per-session event chain is an exact interval partition: the reported table
satisfies p2_out(k) - p2_out(k+1) = p2_dec(k+1) and total probability to float
precision even though the per-entry values inherit the approximation.

The same-slot term (layer 2 finishing in the layer-1 decode slot) keeps its
exact threshold y_l from l slots of f_I(abar*P, 0, a, S, D) >= R2; it agrees
with the approximate indicator whenever the latter decides, and keeps the tail
otherwise.

Adaptive compression swaps the single-layer-slot gain a for a_hat computed
from the feedback bound s_hat at the layer-1 decode slot.

Evaluation rule: the S-link cdf F runs once per threshold array, at that
array's own shape (x_l over (r1, alpha, node), a layer-2 threshold over its own
inputs), never on the broadcast (r1, r2, node) block.  F is carried through the
cumulative min, and F(min(u, v)), F(max(u, v)) are picked elementwise from F(u)
and F(v): min and max return one of their arguments, so the picked double is
the one F would have returned.  The p2_out(k) term F(min(x_{l-1}, thr_l(k)))
is reused by p2_dec(k+1).
"""

from __future__ import annotations

import numpy as np

from .channel import (
    CompressionPolicy,
    RatePolicy,
    SystemConfig,
    adaptive_gain,
    conservative_gain,
    infer_s_hat,
    slot_threshold,
)
from .fading import QuadratureGrid, cdf_of_max, cdf_of_min, quantize
from .tables import ProbabilityTable, ThroughputReport, expected_length

DEFAULT_QUAD_N = 256


def _pos(x):
    return np.maximum(x, 0.0)


def _check_ltsc(cfg: SystemConfig):
    if cfg.channel_regime != "ltsc":
        raise ValueError("LTSC analytics require channel_regime='ltsc'")
    if cfg.bc_layer2_interference:
        raise ValueError(
            "the BC layer-2 residual-interference variant has no LTSC closed form; "
            "it is available in the simulator and the STSC analytics"
        )


def node_tables(
    cfg: SystemConfig,
    r1,
    r2,
    alpha,
    grid: QuadratureGrid,
    comp: CompressionPolicy = CompressionPolicy("constant"),
    single_slot_thresholds: bool = False,
):
    """Per-node conditional tables (p1, p2_out, p2_dec), each shaped (..., nd, T).

    r1/r2/alpha broadcast against the node axis, so a scalar tuple gives
    (nd, T) and per-node policies pass nd-vectors.
    """
    _check_ltsc(cfg)
    P, cmax, T = cfg.power, cfg.backhaul_capacity, cfg.max_rounds
    s_min = cfg.s_min
    d = grid.nodes
    F = cfg.model_s.cdf_strict

    r1 = np.asarray(r1, dtype=float)[..., None] if np.ndim(r1) == 0 else np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)[..., None] if np.ndim(r2) == 0 else np.asarray(r2, dtype=float)
    alpha = (
        np.asarray(alpha, dtype=float)[..., None]
        if np.ndim(alpha) == 0
        else np.asarray(alpha, dtype=float)
    )
    abar = 1.0 - alpha

    a = conservative_gain(d, s_min, P, cmax)
    b = 1.0 + a / d
    # approximate per-BC-slot layer-2 credit (1/2)log2(c/b), c = b + abar P a
    g2 = 0.5 * np.log2(1.0 + abar * P * a / b)

    shape = np.broadcast_shapes(r1.shape, r2.shape, alpha.shape, d.shape)

    # layer-1 decode-within-l thresholds at their (r1, alpha, node) shape; x[0] = +inf
    x = [np.inf]
    for l in range(1, T + 1):
        l_eff = 1 if single_slot_thresholds else l
        x.append(slot_threshold(r1, l_eff, alpha * P, abar * P, a, d))
    Fx = [F(v) for v in x]
    p1 = np.empty(shape + (T,))
    p2o = np.empty(shape + (T,))
    p2d = np.empty(shape + (T,))
    for k in range(1, T + 1):
        p1[..., k - 1] = Fx[k]

    # thr[l][k]: S-threshold for "layer 2 decoded by slot k given layer 1 at
    # slot l", and Fthr[l][k] = F(thr[l][k]), carried through the cumulative min
    # so each raw threshold passes through F once
    thr, Fthr = {}, {}
    for l in range(1, T + 1):
        prev = slot_threshold(r2, l, abar * P, 0.0, a, d)  # same-slot threshold
        F_prev = F(prev)
        thr[l], Fthr[l] = {l: prev}, {l: F_prev}
        if comp.adaptive:
            s_hat = infer_s_hat(r1, l, alpha, d, a, P, s_min)
            # +inf means "layer 1 cannot decode at l"; the interval is empty,
            # substitute a dummy so a_hat stays finite
            s_hat = np.where(np.isposinf(s_hat), 1.0, s_hat)
            a_sl = adaptive_gain(d, s_hat, P, cmax)
        else:
            a_sl = a
        for k in range(l + 1, T + 1):
            raw = slot_threshold(r2 - l * g2, k - l, P, 0.0, a_sl, d)
            F_prev = cdf_of_min(prev, raw, F_prev, F(raw))
            prev = np.minimum(prev, raw)
            thr[l][k], Fthr[l][k] = prev, F_prev

    lo_prev = {}
    for k in range(1, T + 1):
        # F(min(x[l-1], thr[l][k])) enters p2_out(k) now and p2_dec(k+1) next
        lo = {l: cdf_of_min(x[l - 1], thr[l][k], Fx[l - 1], Fthr[l][k])
              for l in range(1, k + 1)}
        out_k = np.broadcast_to(Fx[k], shape).copy()
        for l in range(1, k + 1):
            out_k += _pos(lo[l] - Fx[l])
        p2o[..., k - 1] = out_k

        dec_k = _pos(Fx[k - 1] - cdf_of_max(x[k], thr[k][k], Fx[k], Fthr[k][k]))
        for l in range(1, k):
            dec_k += _pos(lo_prev[l] - cdf_of_max(x[l], thr[l][k], Fx[l], Fthr[l][k]))
        p2d[..., k - 1] = dec_k
        lo_prev = lo

    return p1, p2o, p2d


def node_reward_length(cfg, r1, r2, alpha, grid, comp):
    """Per-node E[R|d], E[L|d] (optimizer hook); shapes broadcast like node_tables."""
    p1, p2o, p2d = node_tables(cfg, r1, r2, alpha, grid, comp)
    T = cfg.max_rounds
    r1 = np.asarray(r1, dtype=float)[..., None] if np.ndim(r1) == 0 else np.asarray(r1)
    r2 = np.asarray(r2, dtype=float)[..., None] if np.ndim(r2) == 0 else np.asarray(r2)
    reward = r1 * (1.0 - p1[..., T - 1]) + r2 * (1.0 - p2o[..., T - 1])
    t = np.arange(1, T)
    length = p2d[..., : T - 1] @ t + T * (p2d[..., T - 1] + p2o[..., T - 1])
    return reward, length


def _policy_arrays(policy: RatePolicy, grid: QuadratureGrid):
    if policy.mode == "lcsit" and policy.r1.shape != grid.nodes.shape:
        raise ValueError("lcsit policy must supply one tuple per quadrature node")
    return policy.r1, policy.r2, policy.alpha


def probability_table(
    cfg: SystemConfig,
    policy: RatePolicy,
    comp: CompressionPolicy = CompressionPolicy("constant"),
    grid: QuadratureGrid | None = None,
    quad_n: int = DEFAULT_QUAD_N,
    single_slot_thresholds: bool = False,
) -> ProbabilityTable:
    """Mass-averaged ProbabilityTable over the D grid."""
    grid = grid or quantize(cfg.model_d, quad_n)
    r1, r2, alpha = _policy_arrays(policy, grid)
    p1, p2o, p2d = node_tables(cfg, r1, r2, alpha, grid, comp, single_slot_thresholds)
    w = grid.weights
    return ProbabilityTable(
        p1_out=np.einsum("i,...ik->...k", w, p1),
        p2_out=np.einsum("i,...ik->...k", w, p2o),
        p2_dec=np.einsum("i,...ik->...k", w, p2d),
    )


def _check_k(k: int, T: int):
    if not 1 <= k <= T:
        raise ValueError(f"k={k} outside 1..{T}")


def p1_out(k, cfg, policy, grid=None, quad_n=DEFAULT_QUAD_N, single_slot_thresholds=False):
    _check_k(k, cfg.max_rounds)
    table = probability_table(cfg, policy, grid=grid, quad_n=quad_n,
                              single_slot_thresholds=single_slot_thresholds)
    return float(table.p1_out[k - 1])


def p2_out(k, cfg, policy, comp=CompressionPolicy("constant"), grid=None,
           quad_n=DEFAULT_QUAD_N):
    _check_k(k, cfg.max_rounds)
    return float(probability_table(cfg, policy, comp, grid, quad_n).p2_out[k - 1])


def p2_dec(k, cfg, policy, comp=CompressionPolicy("constant"), grid=None,
           quad_n=DEFAULT_QUAD_N):
    _check_k(k, cfg.max_rounds)
    return float(probability_table(cfg, policy, comp, grid, quad_n).p2_dec[k - 1])


def throughput_ltsc(
    cfg: SystemConfig,
    policy: RatePolicy,
    comp: CompressionPolicy = CompressionPolicy("constant"),
    grid: QuadratureGrid | None = None,
    quad_n: int = DEFAULT_QUAD_N,
) -> ThroughputReport:
    """eta = E[R]/E[L]; per-node policies are assembled node-by-node before averaging."""
    grid = grid or quantize(cfg.model_d, quad_n)
    r1, r2, alpha = _policy_arrays(policy, grid)
    reward, length = node_reward_length(cfg, r1, r2, alpha, grid, comp)
    er = float(reward @ grid.weights)
    el = float(length @ grid.weights)
    table = probability_table(cfg, policy, comp, grid)
    return ThroughputReport(
        eta=er / el,
        expected_reward=er,
        expected_length=el,
        table=table,
        config_echo={"regime": "ltsc", "compression": comp.kind, "policy_mode": policy.mode},
    )
