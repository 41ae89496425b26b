"""Exact-equality oracles for the LTSC and STSC evaluators, the optimizer and
the Monte Carlo stepper.

The evaluators share one S-link cdf pass per threshold array, and the LTSC
node tables form an adaptive chain once per distinct compression gain.  The optimizer
finds every policy class in one lattice pass and runs Dinkelbach on per-node
candidate fronts.  The stepper forms each session's gains once, takes one
mutual-information pass per layer and slot, and writes every per-slot array
into a workspace that outlives the batch.  All of these are meant to change no bit of any result, so
the straightforward forms they replaced are kept here as references and
compared with np.array_equal and ==.

Two exceptions.  The STSC inner expectation over (D2, S2) is now one
function G of one threshold per cell (`stsc.node_cdf_sum`), summed in another
order than the reference's per-node residual cdfs, and p2_dec_1 and phi are
(r1, r2, d1) sums of per-row bin sums where the reference sums the (r1, r2,
d1, s1) block, so p1_out_2, p2_dec_1 and p2_out_2 are compared within
STSC_ATOL; p1_out_1 stays exact.  The LTSC
decode table is now the first difference of p2_out (`ltsc.decode_table`), not
a sum over its own thresholds, so it is compared within DEC_ATOL; p1 and
p2_out stay exact.

The fading cdf, G and the slot-1 bin cdfs now run in place or without a
clip; their earlier out-of-place forms are kept too (`reference_cdf`,
`reference_node_cdf_sum`) and compared with np.array_equal.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from relharq import cli, fading, ltsc, stsc
from relharq import optimize as opt
from relharq import simulate as sim
from relharq.channel import (CompressionPolicy, RatePolicy, SystemConfig, _split_gain,
                             backhaul_usage, check_supported, conservative_gain,
                             infer_s_hat, mutual_info, slot_threshold, threshold_offset)
from relharq.fading import FadingModel, QuadratureGrid, cdf_of_min, quantize
from relharq.ltsc import node_grid, node_tables
from relharq.optimize import GridSpec, OptimizationResult
from relharq.stsc import quantity_tables, stsc_quantities
from relharq.tables import NumericalError, reward_length
from scipy import special
from test_stsc import G_CASES, whole_block

CONST = CompressionPolicy("constant")
ADAPT = CompressionPolicy("adaptive")
STSC_ATOL = 16 * np.finfo(float).eps  # 3.6e-15; largest moves seen 8.9e-16, p2_dec_1 2.2e-16
DEC_ATOL = 2 * np.finfo(float).eps  # 4.4e-16; the largest difference seen is 2.2e-16


def _pos(x):
    return np.maximum(x, 0.0)


def reference_full_block_node_tables(
    cfg: SystemConfig,
    r1,
    r2,
    alpha,
    grid: QuadratureGrid,
    comp: CompressionPolicy = CONST,
    single_slot_thresholds: bool = False,
):
    """node_tables as written before its cdf passes were shared: every term
    calls F on the full broadcast block."""
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

    # layer-1 decode-within-l thresholds; x[0] = +inf
    x = [np.full(shape, np.inf)]
    for l in range(1, T + 1):
        l_eff = 1 if single_slot_thresholds else l
        x.append(np.broadcast_to(
            slot_threshold(r1, l_eff, alpha * P, abar * P, threshold_offset(a, d)), shape
        ))
    Fx = [F(v) for v in x]
    p1 = np.empty(shape + (T,))
    p2o = np.empty(shape + (T,))
    p2d = np.empty(shape + (T,))
    for k in range(1, T + 1):
        p1[..., k - 1] = Fx[k]

    # thr[l][k]: S-threshold for "layer 2 decoded by slot k given layer 1 at slot l"
    thr = {}
    for l in range(1, T + 1):
        same_slot = np.broadcast_to(slot_threshold(r2, l, abar * P, 0.0, threshold_offset(a, d)),
                                    shape)
        chain = {l: same_slot}
        if comp.adaptive:
            s_hat = infer_s_hat(r1, l, alpha, threshold_offset(a, d), P, s_min)
            # +inf means "layer 1 cannot decode at l"; the interval is empty,
            # substitute a dummy so a_hat stays finite
            s_hat = np.where(np.isposinf(s_hat), 1.0, s_hat)
            a_sl = conservative_gain(d, s_hat, P, cmax)
        else:
            a_sl = a
        prev = same_slot
        for k in range(l + 1, T + 1):
            raw = slot_threshold(r2 - l * g2, k - l, P, 0.0, threshold_offset(a_sl, d))
            prev = np.minimum(prev, np.broadcast_to(raw, shape))
            chain[k] = prev
        thr[l] = chain

    for k in range(1, T + 1):
        out_k = Fx[k].copy()
        for l in range(1, k + 1):
            out_k += _pos(F(np.minimum(x[l - 1], thr[l][k])) - Fx[l])
        p2o[..., k - 1] = out_k

        dec_k = _pos(Fx[k - 1] - F(np.maximum(x[k], thr[k][k])))
        for l in range(1, k):
            dec_k += _pos(
                F(np.minimum(x[l - 1], thr[l][k - 1])) - F(np.maximum(x[l], thr[l][k]))
            )
        p2d[..., k - 1] = dec_k

    return p1, p2o, p2d


def reference_node_tables(
    cfg: SystemConfig,
    r1,
    r2,
    alpha,
    grid: QuadratureGrid,
    comp: CompressionPolicy = CONST,
):
    """node_tables before the adaptive chain was formed once per distinct
    compression gain: every layer-2 threshold and its cdf at the block shape."""
    check_supported(cfg, comp, regime="ltsc")
    P, cmax, T = cfg.power, cfg.backhaul_capacity, cfg.max_rounds
    s_min = cfg.s_min
    d = grid.nodes
    F = cfg.model_s.cdf_strict

    r1, r2, alpha = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, r2, alpha))
    abar = 1.0 - alpha

    a = conservative_gain(d, s_min, P, cmax)
    b = _split_gain(a, d)  # 1 + a/d; a dead link (d = 0) has a = 0 and b = 1
    # approximate per-BC-slot layer-2 credit (1/2)log2(c/b), c = b + abar P a
    g2 = 0.5 * np.log2(1.0 + abar * P * a / b)

    shape = np.broadcast_shapes(r1.shape, r2.shape, alpha.shape, d.shape)

    # layer-1 decode-within-l thresholds at their (r1, alpha, node) shape; x[0] = +inf
    x = [np.inf]
    for l in range(1, T + 1):
        x.append(slot_threshold(r1, l, alpha * P, abar * P, threshold_offset(a, d)))
    Fx = [F(v) for v in x]
    p1 = np.broadcast_to(np.stack(Fx[1:], axis=-1), shape + (T,))
    p2o = p1.copy()

    # l-major: thr is thr_l(k), the S-threshold for "layer 2 decoded by slot k
    # given layer 1 at slot l", cumulative-min'ed over k = l..T with F(thr)
    # carried along, so each raw threshold passes through F once
    for l in range(1, T + 1):
        thr = slot_threshold(r2, l, abar * P, 0.0, threshold_offset(a, d))  # same-slot threshold
        F_thr = F(thr)
        if comp.adaptive:
            s_hat = infer_s_hat(r1, l, alpha, threshold_offset(a, d), P, s_min)
            # +inf means "layer 1 cannot decode at l"; the interval is empty,
            # substitute a dummy so a_hat stays finite
            s_hat = np.where(np.isposinf(s_hat), 1.0, s_hat)
            a_sl = conservative_gain(d, s_hat, P, cmax)
        else:
            a_sl = a
        for k in range(l, T + 1):
            if k > l:
                raw = slot_threshold(r2 - l * g2, k - l, P, 0.0, threshold_offset(a_sl, d))
                F_thr = cdf_of_min(thr, raw, F_thr, F(raw))
                thr = np.minimum(thr, raw)
            p2o[..., k - 1] += _pos(cdf_of_min(x[l - 1], thr, Fx[l - 1], F_thr) - Fx[l])

    return p1, p2o



def reference_stsc_quantities(cfg: SystemConfig, r1_vec, r2_vec, alpha: float, n: int = 128,
                    chunk_cells: int = 16_000_000):
    """stsc_quantities as written before the inner expectations were restricted
    to cells with outer mass: every (d1, s1) cell, F_hi recomputed per chunk
    once q2 n^3 exceeds chunk_cells."""
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
    d2, wd2, c2 = d1, wd, threshold_offset(a1, d1)  # D2 is i.i.d. with D1

    Fs1 = cfg.model_s.cdf_strict
    Fs2 = cfg.model_s.cdf_strict

    # S1 bin boundaries and the exact slot-1 indicator masses per bin.  Bin
    # masses come from the cdf at the edges (not the nominal quantile weights)
    # so the three-way partition telescopes to total mass 1 exactly.
    lo = np.concatenate(([-np.inf], grid_s.edges))
    hi = np.concatenate((grid_s.edges, [np.inf]))
    F_lo = Fs1(lo)
    w_bin = Fs1(hi) - F_lo

    c1 = threshold_offset(a1, d1)
    lam1 = slot_threshold(r1[:, None], 1, ap, abp, c1)              # (q1, nd)
    lam2 = slot_threshold(r2[:, None], 1, abp, p_int2, c1)          # (q2, nd)
    lam_max = np.maximum(lam1[:, None, :], lam2[None, :, :])        # (q1, q2, nd)

    def bin_mass_below(c):
        # mass of {S1 < c} within each bin; c broadcasts against the bin axis
        return Fs1(np.clip(c[..., None], lo, hi)) - F_lo

    m_fail = bin_mass_below(lam1)                                   # (q1, nd, ns)
    m_below_max = bin_mass_below(lam_max)                           # (q1, q2, nd, ns)

    # per-(d1, s1-node) slot-1 quantities
    i1 = mutual_info(ap, abp, a1[:, None], s1, d1[:, None])         # (nd, ns)
    i2 = mutual_info(abp, p_int2, a1[:, None], s1, d1[:, None])     # (nd, ns)
    h = r1[:, None, None] - i1                                      # (q1, nd, ns)
    r2p = r2[:, None, None] - i2                                    # (q2, nd, ns)

    # smooth inner expectations over (D2, S2)
    def inner_fail_mass(res, p_sig, p_int):
        # E_{D2}[Pr[S2 < threshold(res)]] for residual rates res (..., nd, ns)
        out = np.empty(res.shape)
        step = max(1, chunk_cells // (nd * ns * len(d2)))
        for i in range(0, res.shape[0], step):
            thr = slot_threshold(res[i : i + step, ..., None], 1, p_sig, p_int, c2)
            out[i : i + step] = Fs2(thr) @ wd2
        return out

    q_miss = inner_fail_mass(h, ap, abp)                            # (q1, nd, ns)
    phi_miss = inner_fail_mass(r2p, P, 0.0)                         # (q2, nd, ns)

    # gamma: S2 in [layer-1 residual threshold, layer-2 BC residual threshold)
    gam = np.empty((q1, q2, nd, ns))
    hi_cells = q2 * nd * ns * len(d2)
    F_hi = Fs2(slot_threshold(r2p[:, ..., None], 1, abp, p_int2, c2)) if hi_cells <= chunk_cells else None
    step = max(1, chunk_cells // hi_cells)
    for i in range(0, q1, step):
        F_lo_t = Fs2(slot_threshold(h[i : i + step, None, ..., None], 1, ap, abp, c2))
        fh = F_hi if F_hi is not None else Fs2(slot_threshold(r2p[:, ..., None], 1, abp, p_int2, c2))
        gam[i : i + step] = np.maximum(fh[None] - F_lo_t, 0.0) @ wd2

    m_mid = m_below_max - m_fail[:, None]                           # mass lam1 <= S1 < lam2
    m_done = w_bin - m_below_max

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



S_MODELS = {
    "rayleigh": FadingModel("rayleigh", 1.5),
    "rician": FadingModel("rician", 1.0, rician_k=1.5),
    "pointmass": FadingModel("pointmass", point_value=1.3),
}
D_RICIAN = FadingModel("rician", 4.0, rician_k=2.0)
D_POINT = FadingModel("pointmass", point_value=2.5)


def ltsc_cfg(s_kind, T, P=2.0, cmax=1.2, model_d=D_RICIAN):
    return SystemConfig(power=P, backhaul_capacity=cmax, max_rounds=T,
                        model_d=model_d, model_s=S_MODELS[s_kind])


def assert_tables_equal(got, want):
    """node_tables' (p1, p2_out) bit for bit; the p2_dec derived from p2_out
    within DEC_ATOL of the reference's own."""
    for g, w in zip(got, want[:2], strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
    dec = ltsc.decode_table(got[1])
    assert dec.shape == want[2].shape
    assert np.allclose(dec, want[2], rtol=0.0, atol=DEC_ATOL, equal_nan=True)


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
class TestNodeTablesMatchReference:
    def test_tuple_block(self, T, comp, s_kind):
        # the optimizer's (r1, r2) block at one alpha, zero rates included
        r1 = np.linspace(0.0, 3.0, 7)[:, None, None]
        r2 = np.linspace(0.0, 1.5, 6)[None, :, None]
        for P in (0.5, 4.0):
            cfg = ltsc_cfg(s_kind, T, P=P)
            grid = node_grid(cfg, 11)
            for alpha in (0.0, 0.6, 0.93, 1.0):
                args = (cfg, r1, r2, np.float64(alpha), grid, comp)
                assert_tables_equal(node_tables(*args), reference_full_block_node_tables(*args))

    def test_scalar_tuple(self, T, comp, s_kind):
        cfg = ltsc_cfg(s_kind, T)
        args = (cfg, 0.9, 0.4, 0.85, node_grid(cfg, 9), comp)
        assert_tables_equal(node_tables(*args), reference_full_block_node_tables(*args))

    def test_per_node_policy(self, T, comp, s_kind):
        cfg = ltsc_cfg(s_kind, T, P=3.0)
        rng = np.random.default_rng(T)
        r1, r2 = rng.uniform(0.0, 2.5, 10), rng.uniform(0.0, 1.2, 10)
        alpha = rng.uniform(0.5, 1.0, 10)
        args = (cfg, r1, r2, alpha, node_grid(cfg, 10), comp)
        assert_tables_equal(node_tables(*args), reference_full_block_node_tables(*args))

    def test_pointmass_relay_link(self, T, comp, s_kind):
        cfg = ltsc_cfg(s_kind, T, model_d=D_POINT)
        grid = node_grid(cfg, 8)
        args = (cfg, np.linspace(0.0, 2.0, 5)[:, None, None],
                np.linspace(0.0, 1.0, 4)[None, :, None], np.float64(0.9), grid, comp)
        assert_tables_equal(node_tables(*args), reference_full_block_node_tables(*args))


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
def test_node_tables_nan_thresholds_match_reference(comp):
    # against zero interference (alpha = 1 for layer 1, always for layer 2) a
    # rate past 512 l bit/symbol overflows 2^(2R/l) for l = 1, where
    # slot_threshold must give +inf (an outage), not inf * 0 = NaN
    cfg = ltsc_cfg("rician", 3)
    args = (cfg, np.array([0.5, 600.0])[:, None, None],
            np.array([0.3, 600.0])[None, :, None], np.float64(1.0), node_grid(cfg, 7), comp)
    want = reference_full_block_node_tables(*args)
    p1, p2o, p2d = want
    assert all(np.isfinite(t).all() for t in want)
    assert np.all(p1[1] == 1.0)
    assert np.all(p2o[1] == 1.0) and np.all(p2o[:, 1] == 1.0)
    assert np.all(p2d[1] == 0.0) and np.all(p2d[:, 1] == 0.0)
    assert_tables_equal(node_tables(*args), want)


def count_cdf_points(monkeypatch):
    points = []
    cdf = FadingModel.cdf

    def counting_cdf(self, x, out=None):
        points.append(np.size(x))
        return cdf(self, x, out)

    monkeypatch.setattr(FadingModel, "cdf", counting_cdf)
    return points


def test_constant_block_evaluates_fewer_cdf_points_than_cells(monkeypatch):
    q1, q2, nd = 16, 16, 8
    cfg = ltsc_cfg("rician", 3)
    grid = node_grid(cfg, nd)
    args = (cfg, np.linspace(0.0, 3.0, q1)[:, None, None],
            np.linspace(0.0, 1.5, q2)[None, :, None], np.float64(0.8), grid, CONST)
    points = count_cdf_points(monkeypatch)
    node_tables(*args)
    assert sum(points) < q1 * q2 * nd
    points.clear()
    reference_full_block_node_tables(*args)
    assert sum(points) > 10 * q1 * q2 * nd


def dead_relay_grid(cfg, n):
    """cfg's node grid on a Rician D whose first node is a dead relay link, d = 0."""
    grid = quantize(D_RICIAN, n)
    d = np.concatenate(([0.0], grid.nodes[1:]))
    a = conservative_gain(d, cfg.s_min, cfg.power, cfg.backhaul_capacity)
    return ltsc.NodeGrid(d, grid.weights, a, _split_gain(a, d), threshold_offset(a, d))


# r1 = 0 rows (s_hat clamped to s_min), repeated rows, and rows that layer 1
# cannot decode at some or all l below alpha = 1 (s_hat = +inf)
R1_ROWS = np.array([0.0, 0.0, 0.3, 0.9, 0.9, 1.6, 2.4, 9.0, 9.0])


@pytest.mark.parametrize("layout", ["tuple", "per-node", "block", "paired-rows"])
@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 5])
def test_node_tables_match_parent(T, comp, s_kind, layout):
    # with a Rician S the adaptive chain is formed once per distinct a_hat per
    # node and spread to the rows that share it; paired rows (r2 and alpha
    # along the r1 axis) share nothing, since their layer-2 thresholds differ
    # by row, and an empty r1 axis has no rows to group
    nd = len(quantize(D_RICIAN, 9).nodes)
    rng = np.random.default_rng(T)
    if layout == "tuple":
        calls = [(r1, 0.4, alpha) for r1 in (0.0, 0.9, 9.0) for alpha in (0.5, 1.0)]
    elif layout == "per-node":
        calls = [(rng.choice(R1_ROWS, nd), rng.uniform(0.0, 2.0, nd),
                  rng.choice([0.0, 0.5, 0.8, 1.0], nd)) for _ in range(4)]
    elif layout == "block":
        calls = [(r1[:, None, None], np.linspace(0.0, 2.0, 5)[None, :, None], np.float64(alpha))
                 for r1 in (R1_ROWS, R1_ROWS[:0]) for alpha in (0.0, 0.5, 0.9, 1.0)]
    else:
        q = len(R1_ROWS)
        calls = [(R1_ROWS[:, None], rng.uniform(0.0, 2.0, (q, 1)),
                  rng.choice([0.5, 0.9], (q, 1)))]
    for P in (0.5, 4.0):
        cfg = ltsc_cfg(s_kind, T, P=P)
        grid = dead_relay_grid(cfg, 9)
        for r1, r2, alpha in calls:
            args = (cfg, r1, r2, alpha, grid, comp)
            for got, want in zip(node_tables(*args), reference_node_tables(*args), strict=True):
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)


def test_adaptive_block_forms_each_distinct_gain_once(monkeypatch):
    # one 31x31 optimizer block at quad.n 32, T = 3, Rician S: before, the
    # three layer-2 thresholds went to the Rician kernel at the block shape
    # (98,209 points with the layer-1 and same-slot ones); once per distinct
    # a_hat per node they are 43,649 points, 30,970 of them not NaN padding
    cfg = SystemConfig(1.0, 1.5, 3, FadingModel("rician", 10.0),
                       FadingModel("rician", 1.0, rician_k=1.0))
    r = np.linspace(0.0, 6.0, 31)
    args = (cfg, r[:, None, None], r[None, :, None], np.float64(0.9),
            node_grid(cfg, 32), ADAPT)
    points = []
    rician_cdf = fading._rician_cdf

    def counting(xp, scale, nc):
        points.append(xp.size)
        return rician_cdf(xp, scale, nc)

    monkeypatch.setattr(fading, "_rician_cdf", counting)
    node_tables(*args)
    assert sum(points) < 49_000
    points.clear()
    reference_node_tables(*args)
    assert sum(points) > 98_000


def assert_stsc_quantities_close(got, want):
    assert sorted(got) == sorted(want)
    assert np.array_equal(got["p1_out_1"], want["p1_out_1"])
    for key in ("p1_out_2", "p2_dec_1", "p2_out_2"):
        assert got[key].shape == want[key].shape
        assert np.all(np.abs(got[key] - want[key]) <= STSC_ATOL), key


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("variant", [False, True], ids=["clean-sic", "interference"])
@pytest.mark.parametrize("n", [9, 16])
# chunked: the Rician G runs over several chunks of support cells;
# one-block: one support cell per chunk
@pytest.mark.parametrize("g_cells", [16_000_000, 3000, 1],
                         ids=["one-chunk", "chunked", "one-block"])
@pytest.mark.parametrize("r1, r2", [
    (np.linspace(0.0, 2.5, 6), np.linspace(0.0, 1.5, 5)),
    ([0.9], [0.5]),  # one tuple: the outer masses leave most cells empty
    # the support of G(u2) may assume no order along r1 or r2
    ([1.7, 0.0, 2.5, 0.4, 1.1, 0.8, 2.0], [0.9, 0.0, 1.5, 0.3, 0.6]),
], ids=["block", "tuple", "unsorted"])
def test_stsc_quantities_match_reference(s_kind, variant, n, g_cells, r1, r2, monkeypatch):
    # alpha = 0 leaves gamma 0 everywhere, alpha = 1 live on nearly every cell
    monkeypatch.setattr(stsc, "G_CELLS", g_cells)
    for P in (0.7, 4.0):
        cfg = SystemConfig(power=P, backhaul_capacity=1.2, max_rounds=2,
                           model_d=D_RICIAN, model_s=S_MODELS[s_kind],
                           channel_regime="stsc", bc_layer2_interference=variant)
        for alpha in (0.0, 0.6, 0.95, 1.0):
            got = stsc_quantities(cfg, r1, r2, alpha, n=n)
            want = reference_stsc_quantities(cfg, r1, r2, alpha, n=n)
            assert_stsc_quantities_close(got, want)


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
def test_stsc_quantities_pointmass_relay_link_match_reference(s_kind):
    cfg = SystemConfig(power=2.0, backhaul_capacity=1.2, max_rounds=2,
                       model_d=D_POINT, model_s=S_MODELS[s_kind], channel_regime="stsc")
    r1, r2 = np.linspace(0.0, 2.5, 4), np.linspace(0.0, 1.5, 3)
    got = stsc_quantities(cfg, r1, r2, 0.9, n=12)
    want = reference_stsc_quantities(cfg, r1, r2, 0.9, n=12)
    assert_stsc_quantities_close(got, want)


def test_stsc_quantities_overflowed_backhaul_keeps_the_reference_nans():
    # at Cmax = 1e6 lam2 and the inner expectations are NaN in places; the
    # (r1, r2, d1) sums of p2_dec_1 and phi must carry them to the same cells
    # as the reference's (r1, r2, d1, s1) block sums
    cfg = SystemConfig(power=2.0, backhaul_capacity=1e6, max_rounds=2, model_d=D_RICIAN,
                       model_s=S_MODELS["rayleigh"], channel_regime="stsc")
    r1, r2 = np.linspace(0.0, 2.5, 4), np.linspace(0.0, 1.5, 3)
    with np.errstate(all="ignore"):
        got = stsc_quantities(cfg, r1, r2, 0.6, n=9)
        want = reference_stsc_quantities(cfg, r1, r2, 0.6, n=9)
    assert np.isnan(want["p2_dec_1"]).any()
    for key in ("p1_out_1", "p2_dec_1", "p2_out_2"):
        assert np.array_equal(np.isnan(got[key]), np.isnan(want[key])), key


# The STSC slot-1 closed forms in place: G's cdf sum writes the cdf over its
# differences slab by slab, the bin cdfs pick among F_lo, F(c) and F_hi instead
# of clipping, and the Rayleigh G is formed on every cell and zeroed at k = 0.

def reference_cdf(model: FadingModel, x, strict=False):
    """FadingModel.cdf (cdf_strict with strict) as written before it took out=:
    out of place, with a last np.where(x < 0, 0.0, ...).  A point mass gives
    NaN at NaN, where that form read 0."""
    x = np.asarray(x, dtype=float)
    if model.kind == "pointmass":
        step = x > model.point_value if strict else x >= model.point_value
        return np.where(np.isnan(x), x, np.where(step, 1.0, 0.0))
    if model.kind == "rayleigh":
        out = -np.expm1(-np.maximum(x, 0.0) / model.mean_power)
    else:
        xp = np.maximum(x, 0.0) / (model.mean_power / (2.0 * (model.rician_k + 1.0)))
        nc = 2.0 * model.rician_k
        out = special.chndtr(xp, 2.0, nc) if nc > 0 else special.chdtr(2.0, xp)
    return np.where(x < 0, 0.0, out)


def reference_node_cdf_sum(model: FadingModel, c, w, g_cells):
    """stsc.node_cdf_sum as written before, at G_CELLS = g_cells: the cdf of a
    gathered copy of each chunk's live pairs, scattered back, and the Rayleigh
    closed form on the cells with k > 0 only."""
    order = np.argsort(c, kind="stable")
    c, w = np.asarray(c, dtype=float)[order], np.asarray(w, dtype=float)[order]
    W = np.concatenate(([0.0], np.cumsum(w)))
    step = max(1, g_cells // len(c))

    def chunked(f, size):
        def g(u):
            out = np.empty(u.shape)
            for i in range(0, len(u), size):
                out[i : i + size] = f(u[i : i + size])
            return out
        return g

    if model.kind == "pointmass":
        def prefix_weight(u):
            x = u[:, None] - c
            out = W[np.sum(x > model.point_value, axis=1)]
            out[np.isnan(x).any(axis=1)] = np.nan
            return out
        return chunked(prefix_weight, step)
    if model.kind == "rician" or not np.isfinite(c).all():
        def cdf_sum(u):
            x = u[:, None] - c
            dead = x <= 0
            x[~dead] = reference_cdf(model, x[~dead], strict=True)
            x[dead] = 0.0
            return x @ w
        return chunked(cdf_sum, max(1, step // 2))
    rho = model.mean_power
    decay = np.exp(-np.diff(c, prepend=c[0]) / rho)
    S = np.zeros_like(W)
    for j in range(len(c)):
        S[j + 1] = S[j] * decay[j] + w[j]

    def closed_form(u):
        k = np.searchsorted(c, u, side="left")
        on = k > 0
        out = np.zeros(u.shape)
        out[on] = W[k[on]] - S[k[on]] * np.exp((c[k[on] - 1] - u[on]) / rho)
        return out
    return chunked(closed_form, step)


G_MODELS = {
    "rayleigh": FadingModel("rayleigh", 1.5),
    "rayleigh-narrow": FadingModel("rayleigh", 0.01),  # exp((c_{k-1} - u) / rho) overflows at k = 0
    "rician-k0": FadingModel("rician", 1.5, rician_k=0.0),
    "rician": FadingModel("rician", 1.5, rician_k=2.0),
    "pointmass": FadingModel("pointmass", point_value=1.3),
}


def edge_points(points, rng, size=200):
    """points, their neighbouring doubles, +-0.0, +-inf, NaN and random values."""
    finite = points[np.isfinite(points)]
    span = np.ptp(finite) + 1.0 if finite.size else 1.0
    return np.concatenate([points, np.nextafter(points, np.inf), np.nextafter(points, -np.inf),
                           [0.0, -0.0, np.inf, -np.inf, np.nan],
                           rng.uniform(-span, 2 * span, size)])


@pytest.mark.parametrize("kind", sorted(G_MODELS))
@pytest.mark.parametrize("case", sorted(G_CASES))
@pytest.mark.parametrize("inf_node", [False, True], ids=["finite", "inf-node"])
def test_node_cdf_sum_matches_reference_bit_for_bit(kind, case, inf_node, monkeypatch):
    # an infinite c sends a Rayleigh S to the cdf sum, and makes u = inf NaN
    rng = np.random.default_rng(8)
    c, w = G_CASES[case](rng)
    if inf_node:
        c, w = np.append(c, np.inf), np.append(w, 0.5)
    model = G_MODELS[kind]
    u = edge_points(np.concatenate([c, c + model.s_min]), rng)
    # the cdf's slabs: one pair each, 32 pairs, or the default split
    for g_cells, split_points in itertools.product((1, 50, 1_000_000),
                                                   (2, 64, fading.SPLIT_POINTS)):
        monkeypatch.setattr(stsc, "G_CELLS", g_cells)
        monkeypatch.setattr(fading, "SPLIT_POINTS", split_points)
        with np.errstate(invalid="ignore", over="ignore"):
            got = stsc.node_cdf_sum(model, c, w)(u)
            want = reference_node_cdf_sum(model, c, w, g_cells)(u)
        assert np.array_equal(got, want, equal_nan=True), (g_cells, split_points)
        assert np.isnan(got[np.isnan(u)]).all()


@pytest.mark.parametrize("kind", sorted(G_MODELS))
@pytest.mark.parametrize("n", [1, 9])
def test_cdf_in_bins_matches_the_clip_bit_for_bit(kind, n):
    cfg = SystemConfig(power=2.0, backhaul_capacity=1.2, max_rounds=2, model_d=D_RICIAN,
                       model_s=G_MODELS[kind], channel_regime="stsc")
    grid = stsc.slot1_grid(cfg, n)
    c = edge_points(np.concatenate([grid.lo, grid.hi, grid.s1]), np.random.default_rng(9))
    for shape in ((-1,), (-1, 1), (1, -1)):
        thr = c.reshape(shape)
        with np.errstate(over="ignore"):  # x / rho at x = +-DBL_MAX
            got = stsc._cdf_in_bins(cfg.model_s.cdf_strict, grid, thr)
            want = reference_cdf(cfg.model_s, np.clip(thr[..., None], grid.lo, grid.hi),
                                 strict=True)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), shape


@pytest.mark.parametrize("kind", sorted(G_MODELS))
@pytest.mark.parametrize("strict", [False, True], ids=["cdf", "cdf_strict"])
@pytest.mark.parametrize("size", [1, fading.SPLIT_POINTS + 3], ids=["one-call", "halves"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # x / rho at DBL_MAX
def test_cdf_into_out_matches_reference_bit_for_bit(kind, strict, size):
    model = G_MODELS[kind]
    c, _ = G_CASES["spread"](np.random.default_rng(10))
    x = np.resize(edge_points(np.concatenate([c, [model.s_min]]), np.random.default_rng(11)),
                  max(size, 1000))
    F = model.cdf_strict if strict else model.cdf
    want = reference_cdf(model, x, strict)
    assert np.array_equal(F(x), want, equal_nan=True)
    y = x.copy()
    assert F(y, out=y) is y and np.array_equal(y, want, equal_nan=True)
    strided = np.empty((x.size, 2))[:, 0]  # not C-contiguous: one call, not halves
    assert F(x, out=strided) is strided and np.array_equal(strided, want, equal_nan=True)
    for v, want_v in zip(x[:40].tolist(), want[:40]):
        got = F(v)
        assert isinstance(got, float) and np.array_equal(got, want_v, equal_nan=True)


# ---------------------------------------------------------------- optimizer

def reference_block_eta(ev, r1v, r2v, alpha):
    """_Evaluator.block before it returned per-node values: eta over the block,
    the LTSC weighted ratio, the STSC reward over length, one MC run per tuple."""
    if ev.backend == "mc":
        out = np.empty((len(r1v), len(r2v)))
        for i, r1 in enumerate(r1v):
            for j, r2 in enumerate(r2v):
                # common random numbers: every tuple sees the same seed
                out[i, j] = sim.estimate(ev.cfg, RatePolicy.constant(r1, r2, alpha),
                                         ev.comp, **ev.mc).eta
        return out
    if ev.cfg.channel_regime == "ltsc":
        reward, length = opt.node_reward_length(
            ev.cfg, r1v[:, None, None], r2v[None, :, None], np.float64(alpha),
            ev.grid, ev.comp,
        )
        return (reward @ ev.grid.weights) / (length @ ev.grid.weights)
    q = stsc_quantities(ev.cfg, r1v, r2v, alpha, ev.quad_n, grid=ev.grid)
    reward, length = reward_length(r1v[:, None], r2v[None, :], *quantity_tables(q)[:2])
    return reward / length


@pytest.mark.parametrize("case", ["ltsc-constant", "ltsc-adaptive", "stsc-rayleigh-s",
                                  "stsc-pointmass-s", "mc"])
def test_block_ratio_matches_reference_eta(case):
    # block returns per-node (E[R], E[L]) for every regime and backend; their
    # ratio weighted by the evaluator's weights is the eta the block used to
    # return, bit for bit
    backend = "mc" if case == "mc" else "analytic"
    comp = ADAPT if case == "ltsc-adaptive" else CONST
    if case.startswith("stsc"):
        cfg = SystemConfig(2.0, 1.5, 2, D_RICIAN, S_MODELS[case.split("-")[1]],
                           channel_regime="stsc")
    else:
        cfg = ltsc_cfg("rician", 3)
    ev = opt._Evaluator(cfg, comp, backend, 12, {"n_sessions": 200, "master_seed": 3})
    r1, r2 = np.linspace(0.0, 2.5, 6), np.linspace(0.0, 1.5, 4)
    if case == "mc":
        r1, r2 = r1[::2], r2[::2]
    for alpha in (0.0, 0.6, 1.0):
        reward, length, weights = whole_block(ev, r1, r2, alpha)
        assert reward.shape == length.shape == (len(r1), len(r2), len(weights))
        want = reference_block_eta(ev, r1, r2, alpha)
        assert np.array_equal((reward @ weights) / (length @ weights), want)


def reference_scan(ev, r1_axis, r2_axis, alpha_axis, best=None):
    for alpha in alpha_axis:
        ev.n_evals += len(r1_axis) * len(r2_axis)
        eta = reference_block_eta(ev, r1_axis, r2_axis, float(alpha))
        flat = int(np.argmax(eta))  # first max: lexicographic-min (r1, r2)
        i, j = divmod(flat, eta.shape[1])
        cand = (float(eta[i, j]), float(alpha), float(r1_axis[i]), float(r2_axis[j]))
        if opt._better(cand, best):
            best = cand
    return best


def reference_refine(ev, spec, best, frozen_r2=None, frozen_alpha=None):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for round_ in range(1, spec.refine_rounds + 1):
        hr = spec.r_step / 2**round_
        ha = spec.alpha_step / 2**round_
        _, alpha, r1, r2 = best
        r1_axis = np.unique(np.clip(r1 + hr * offsets, 0.0, spec.r_max))
        r2_axis = (np.array([frozen_r2]) if frozen_r2 is not None
                   else np.unique(np.clip(r2 + hr * offsets, 0.0, spec.r_max)))
        alpha_axis = (np.array([frozen_alpha]) if frozen_alpha is not None
                      else np.unique(np.clip(alpha + ha * offsets, 0.0, 1.0)))
        best = reference_scan(ev, r1_axis, r2_axis, alpha_axis, best)
    return best


def reference_result(ev, best, extra_meta):
    policy = RatePolicy.constant(best[2], best[3], best[1])
    meta = {"grid_eta": best[0], "n_evals": ev.n_evals, **extra_meta}
    return OptimizationResult(policy=policy, eta=best[0], backend=ev.backend, metadata=meta)


def reference_sl(cfg, comp, backend, grid_spec, quad_n, mc=None):
    """The single-layer optimum as its own search found it before the one-pass driver."""
    ev = opt._Evaluator(cfg, comp, backend, quad_n, mc)
    best = reference_scan(ev, grid_spec.r_axis(), np.array([0.0]), np.array([1.0]))
    best = reference_refine(ev, grid_spec, best, frozen_r2=0.0, frozen_alpha=1.0)
    return reference_result(ev, best, {"policy_class": "single_layer",
                                       "grid": (grid_spec.r_max, grid_spec.r_step)})


def reference_bc(cfg, comp, backend, grid_spec, quad_n, mc=None):
    """The two-layer optimum before the one-pass driver: its own single-layer run."""
    sl = reference_sl(cfg, comp, backend, grid_spec, quad_n, mc)
    ev = opt._Evaluator(cfg, comp, backend, quad_n, mc)
    seed = (sl.eta, float(sl.policy.alpha), float(sl.policy.r1), float(sl.policy.r2))
    best = reference_scan(ev, grid_spec.r_axis(), grid_spec.r_axis(),
                          grid_spec.alpha_axis(), best=seed)
    best = reference_refine(ev, grid_spec, best)
    return reference_result(ev, best, {
        "policy_class": "no_lcsit",
        "grid": (grid_spec.r_max, grid_spec.r_step, grid_spec.alpha_step),
        "single_layer_seed": seed})


def reference_lcsit(cfg, comp, grid_spec, quad_n, kind):
    """The per-node optimum of kind "sl" or "bc" before the one-pass driver:
    every Dinkelbach iteration evaluates the full (alpha, r1, r2, node) lattice
    again, at most 50 of them, until lambda moves by less than 1e-6."""
    if kind == "sl":
        base = reference_sl(cfg, comp, "analytic", grid_spec, quad_n)
        r2_axis, alpha_axis = np.array([0.0]), np.array([1.0])
    else:
        base = reference_bc(cfg, comp, "analytic", grid_spec, quad_n)
        r2_axis, alpha_axis = grid_spec.r_axis(), grid_spec.alpha_axis()
    r1_axis = grid_spec.r_axis()

    grid = node_grid(cfg, quad_n)
    nd = len(grid.nodes)
    r1n = np.full(nd, float(base.policy.r1))
    r2n = np.full(nd, float(base.policy.r2))
    an = np.full(nd, float(base.policy.alpha))

    def node_rl(r1, r2, alpha):
        return opt.node_reward_length(cfg, r1, r2, alpha, grid, comp)

    reward_inc, length_inc = node_rl(r1n, r2n, an)
    lam = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
    trajectory = [lam]
    converged = False
    for _ in range(50):
        best_score = reward_inc - lam * length_inc
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha in alpha_axis:
            reward, length = node_rl(r1_axis[:, None, None], r2_axis[None, :, None],
                                     np.float64(alpha))
            score = (reward - lam * length).reshape(-1, nd)
            pick = np.argmax(score, axis=0)
            top = score[pick, np.arange(nd)]
            gain = top > best_score + 1e-15
            if np.any(gain):
                i, j = np.divmod(pick[gain], len(r2_axis))
                new_r1[gain] = r1_axis[i]
                new_r2[gain] = r2_axis[j]
                new_a[gain] = alpha
                best_score = np.where(gain, top, best_score)
        r1n, r2n, an = new_r1, new_r2, new_a
        reward_inc, length_inc = node_rl(r1n, r2n, an)
        lam_new = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
        if lam_new < lam - 1e-12:
            raise NumericalError(
                f"fractional-programming iterate decreased: {lam!r} -> {lam_new!r}")
        trajectory.append(lam_new)
        if abs(lam_new - lam) < 1e-6:
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return OptimizationResult(
        policy=RatePolicy.per_node(r1n, r2n, an), eta=lam, backend="analytic",
        metadata={"policy_class": "lcsit_single_layer" if kind == "sl" else "lcsit",
                  "n_nodes": nd, "lambda_trajectory": trajectory,
                  "converged": converged, "iterations": len(trajectory) - 1,
                  "warning": None if converged else "fractional programming hit max_iter",
                  "seed_eta": base.eta})


def reference_optima(cfg, comp, classes, backend="analytic", grid_spec=GridSpec(),
                     quad_n=64, mc=None):
    """One reference call per class, as the CLI made them before the driver."""
    calls = {
        "sl": lambda: reference_sl(cfg, comp, backend, grid_spec, quad_n, mc),
        "bc": lambda: reference_bc(cfg, comp, backend, grid_spec, quad_n, mc),
        "sl-lcsit": lambda: reference_lcsit(cfg, comp, grid_spec, quad_n, "sl"),
        "bc-lcsit": lambda: reference_lcsit(cfg, comp, grid_spec, quad_n, "bc"),
    }
    return {c: calls[c]() for c in classes}


def assert_results_equal(got, want):
    assert got.eta == want.eta
    assert got.backend == want.backend
    assert got.policy.mode == want.policy.mode
    for name in ("r1", "r2", "alpha"):
        assert np.array_equal(getattr(got.policy, name), getattr(want.policy, name)), name
    # lambda_trajectory, converged, iterations, seed_eta, n_evals, ... all exact
    assert got.metadata == want.metadata


ALL_CLASSES = ("bc-lcsit", "sl-lcsit", "bc", "sl")


def assert_optima_match(cfg, comp, classes=ALL_CLASSES, **kw):
    backend, grid_spec, quad_n, mc = (kw.get("backend", "analytic"), kw["grid_spec"],
                                      kw["quad_n"], kw.get("mc"))
    ev = opt._Evaluator(cfg, comp, backend, quad_n, mc)
    got = opt._optimize(ev, classes, grid_spec)
    want = reference_optima(cfg, comp, classes, **kw)
    assert list(got) == list(want)
    for cls in classes:
        assert_results_equal(got[cls], want[cls])
    # the entry point: every class from one pass
    public = opt.optima(cfg, classes, comp, backend, grid_spec, quad_n, mc)
    assert list(public) == list(want)
    for cls in classes:
        assert_results_equal(public[cls], want[cls])
    # each class on its own, through the entry point or a view of the driver
    views = {"sl": lambda: opt.optima(cfg, ["sl"], comp, backend, grid_spec, quad_n, mc)["sl"],
             "bc": lambda: opt.optimize_no_lcsit(cfg, comp, backend, grid_spec, quad_n, mc),
             "sl-lcsit": lambda: opt.optima(cfg, ["sl-lcsit"], comp, backend, grid_spec,
                                            quad_n)["sl-lcsit"],
             "bc-lcsit": lambda: opt.optimize_lcsit(cfg, comp, grid_spec=grid_spec,
                                                    quad_n=quad_n)}
    for cls in classes:
        assert_results_equal(views[cls](), want[cls])
    return got


OPT_GRID = GridSpec(r_max=3.0, r_step=0.25, alpha_step=0.25, refine_rounds=2)
D_RAYLEIGH = FadingModel("rayleigh", 2.0)


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_optimizer_matches_reference(T, comp):
    for s_kind, quad_n in (("rayleigh", 16), ("rician", 6)):
        cfg = ltsc_cfg(s_kind, T, P=1.5, cmax=1.0)
        assert_optima_match(cfg, comp, grid_spec=OPT_GRID, quad_n=quad_n)


def test_lcsit_view_node_grid_is_the_quadrature_grid():
    # optimize_lcsit's n_nodes replaces quad_n: one grid for the scan and the nodes
    cfg = ltsc_cfg("rician", 2, P=1.5, cmax=1.0)
    got = opt.optimize_lcsit(cfg, ADAPT, grid_spec=OPT_GRID, n_nodes=6, quad_n=16)
    want = opt.optima(cfg, ["bc-lcsit"], ADAPT, grid_spec=OPT_GRID, quad_n=6)["bc-lcsit"]
    assert_results_equal(got, want)


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
def test_optimizer_pointmass_relay_link_matches_reference(s_kind, comp):
    # one node whatever quad_n asks
    cfg = ltsc_cfg(s_kind, 2, model_d=D_POINT)
    for quad_n in (16, 1, 5):
        got = assert_optima_match(cfg, comp, grid_spec=OPT_GRID, quad_n=quad_n)
        assert got["bc-lcsit"].metadata["n_nodes"] == 1


@pytest.mark.parametrize("T", [2, 3])
@pytest.mark.parametrize("case", ["pointmass-s-and-d", "pointmass-s", "no-backhaul",
                                  "no-information"])
def test_optimizer_tie_heavy_lattice_matches_reference(case, T):
    # repeated (R, L) values: point-mass links give step-function tables, a zero
    # backhaul repeats whole rows, and with no information every rate is an
    # outage; r2 > 0 at alpha = 1 repeats in every bc lattice
    cfg = {
        "pointmass-s-and-d": SystemConfig(1.0, 1.0, T, FadingModel("pointmass", point_value=1.0),
                                          FadingModel("pointmass", point_value=1.0)),
        "pointmass-s": ltsc_cfg("pointmass", T, P=1.0, cmax=1.0),
        "no-backhaul": SystemConfig(1.0, 0.0, T, D_RAYLEIGH, S_MODELS["rayleigh"]),
        "no-information": SystemConfig(1.0, 0.0, T, D_RAYLEIGH,
                                       FadingModel("pointmass", point_value=0.0)),
    }[case]
    for quad_n in (12, 5):
        assert_optima_match(cfg, CONST, grid_spec=OPT_GRID, quad_n=quad_n)


def test_optimizer_stsc_matches_reference():
    cfg = SystemConfig(2.0, 1.5, 2, D_RAYLEIGH, S_MODELS["rician"], channel_regime="stsc")
    assert_optima_match(cfg, CONST, ("bc", "sl"), grid_spec=OPT_GRID, quad_n=12)


def test_optimizer_stsc_passes_match_reference(monkeypatch):
    # r1 passes of 3 rows: the scan keeps rows pass by pass and takes its
    # argmax and fronts over their concatenation, as a scan of whole blocks
    monkeypatch.setattr(stsc, "R1_CELLS", 3 * 12 * 12 + 1)
    passes = []
    sides = opt._Evaluator.sides

    def counting_sides(self, r1v, alpha):
        for side, p1 in sides(self, r1v, alpha):
            passes.append(len(side[0]))
            yield side, p1

    monkeypatch.setattr(opt._Evaluator, "sides", counting_sides)
    for s_kind in ("rician", "pointmass"):
        cfg = SystemConfig(2.0, 1.5, 2, D_RAYLEIGH, S_MODELS[s_kind], channel_regime="stsc")
        assert_optima_match(cfg, CONST, ("bc", "sl"), grid_spec=OPT_GRID, quad_n=12)
    assert max(passes) == 3 and len(passes) > len(OPT_GRID.alpha_axis()) * 4


def test_optimizer_mc_backend_matches_reference():
    cfg = ltsc_cfg("rayleigh", 2, P=1.0, cmax=1.0)
    spec = GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.5, refine_rounds=1)
    assert_optima_match(cfg, CONST, ("bc", "sl"), backend="mc", grid_spec=spec, quad_n=8,
                        mc={"n_sessions": 300, "master_seed": 5})


def test_negative_throughput_at_the_per_node_seed_is_refused(monkeypatch, tmp_path, capsys):
    # the fronts hold for lambda >= 0 only; a reward shifted below zero makes the
    # per-node seed's throughput negative, and the search refuses it
    cfg = ltsc_cfg("rician", 3, P=1.5, cmax=1.0)
    rl = opt.node_reward_length

    def shifted(*args):
        reward, length = rl(*args)
        return reward - 5.0, length

    monkeypatch.setattr(opt, "node_reward_length", shifted)
    for quad_n in (10, 6):
        with pytest.raises(NumericalError, match="per-node search"):
            opt.optima(cfg, ["bc-lcsit"], CONST, grid_spec=OPT_GRID, quad_n=quad_n)
    path = tmp_path / "exp.cfg"
    path.write_text("csi = lcsit\nquad.n = 6\ngrid.r_max = 3.0\ngrid.r_step = 0.5\n"
                    "grid.alpha_step = 0.5\ngrid.refine = 0\n", encoding="utf-8")
    assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "per-node search" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(100))
def test_front_keeps_the_first_argmax(seed):
    # near-ties one ulp apart, exact repeats, NaN rows and lam = 0, tiny or large;
    # seeds from 6 on draw the shape too, the sl lattice (q2 = 1) and one node among them
    rng = np.random.default_rng(seed)
    q1, q2, nd = 9, 7, 5
    if seed >= 6:
        q1, q2, nd = int(rng.integers(1, 12)), int(rng.choice([1, 1, 3, 7, 12])), \
            int(rng.integers(1, 6))
    reward = rng.choice([0.0, 0.5, 0.7, 1.2], size=(q1, q2, nd))
    length = rng.choice([1.0, 1.5, 2.0, 2.5], size=(q1, q2, nd))
    ulps = rng.integers(-3, 4, size=(2, q1, q2, nd)) * (rng.random((2, q1, q2, nd)) < 0.5)
    reward = reward + ulps[0] * np.spacing(reward + 1.0)
    length = length + ulps[1] * np.spacing(length)
    if seed % 3 == 2:
        reward[rng.integers(q1), rng.integers(q2), 1 % nd] = np.nan
        length[rng.integers(q1), rng.integers(q2), 3 % nd] = np.nan
    pos, r_f, l_f = opt._front(reward, length)
    full_r, full_l = reward.reshape(-1, nd), length.reshape(-1, nd)
    assert len(pos) <= q1 * q2 and (seed >= 6 or len(pos) < q1 * q2)  # 9 x 7 always prunes
    for lam in (0.0, 1e-17, 1e-9, 0.3, 0.48, 1.0, 2.4, 1e6):
        full = full_r - lam * full_l
        front = r_f - lam * l_f
        pick = np.argmax(front, axis=0)
        want = np.argmax(full, axis=0)
        for c in range(nd):
            if np.isnan(full[want[c], c]):
                assert np.isnan(front[pick[c], c])
            else:
                assert pos[pick[c], c] == want[c]
                assert front[pick[c], c] == full[want[c], c]


def test_per_node_search_starts_at_nonnegative_throughput():
    # random LTSC scenarios on a tiny lattice: the single-tuple seeds of both
    # per-node classes have eta >= 0 (the sl lattice holds r1 = 0), so the
    # search never refuses a negative throughput
    rng = np.random.default_rng(23)
    spec = GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.5, refine_rounds=1)
    for k in range(60):
        cfg = cli._rand_system(rng, "ltsc", T=int(rng.integers(1, 5)))
        if k % 5 == 0:
            cfg = dataclasses.replace(cfg, backhaul_capacity=0.0)
        comp = (CONST, ADAPT)[k % 2]
        got = opt.optima(cfg, ["bc-lcsit", "sl-lcsit"], comp, grid_spec=spec,
                         quad_n=int(rng.integers(1, 9)))
        for res in got.values():
            assert res.metadata["lambda_trajectory"][0] >= 0


def count_node_table_cells(monkeypatch):
    # the optimizer's blocks call node_tables, its per-node tuples and the
    # oracles node_reward_length
    cells = []
    tables = ltsc.node_tables

    def counting(*args, **kwargs):
        out = tables(*args, **kwargs)
        cells.append(out[0][..., 0].size)
        return out

    for module in (ltsc, opt):
        monkeypatch.setattr(module, "node_tables", counting)
    return cells


def test_quartet_takes_about_one_lattice_pass(monkeypatch):
    # one figure-2 point on the coarse golden grid
    cfg = SystemConfig(1.0, 1.0, 2, FadingModel("rician", 1.0), FadingModel("rayleigh", 1.0))
    kw = {"grid_spec": OPT_GRID, "quad_n": 24}
    one_pass = len(OPT_GRID.r_axis()) ** 2 * len(OPT_GRID.alpha_axis()) * 24
    blocks = []
    sides = opt._Evaluator.sides

    def counting_sides(self, *args):
        blocks.append(args)
        return sides(self, *args)

    monkeypatch.setattr(opt._Evaluator, "sides", counting_sides)
    opt._optimize(opt._Evaluator(cfg, CONST, "analytic", kw["quad_n"]), ("bc", "sl"),
                  kw["grid_spec"])
    n_blocks = len(blocks)
    cells = count_node_table_cells(monkeypatch)
    opt._optimize(opt._Evaluator(cfg, CONST, "analytic", kw["quad_n"]), ALL_CLASSES,
                  kw["grid_spec"])
    assert sum(cells) <= 1.5 * one_pass
    # the per-node classes form no block of their own: they read the scan's fronts
    assert len(blocks) == 2 * n_blocks
    cells.clear()
    reference_optima(cfg, CONST, ALL_CLASSES, **kw)
    assert sum(cells) > 4 * one_pass


@pytest.mark.parametrize("n_nodes", [None, 16])
def test_lcsit_peak_memory_is_no_higher_than_reference(n_nodes):
    cfg = SystemConfig(1.0, 1.0, 2, FadingModel("rician", 1.0), FadingModel("rayleigh", 1.0))
    spec = GridSpec(r_max=4.0, r_step=0.1, alpha_step=0.1, refine_rounds=1)
    peaks = []
    for run in (lambda: opt.optimize_lcsit(cfg, CONST, grid_spec=spec, n_nodes=n_nodes,
                                           quad_n=32),
                lambda: reference_lcsit(cfg, CONST, spec, n_nodes or 32, "bc")):
        run()  # untraced first: lazily built caches are not part of either peak
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # both peak inside node_tables on one (41, 41, nodes) scan block, about 5 MB at 32;
    # the driver's own Python objects (dicts, closure cells) add under 1 KiB
    assert peaks[0] <= peaks[1] + 4096


# ---- the pruned single-tuple scan: rows whose bound is below the incumbent

PRUNE_GRID = GridSpec(r_max=3.0, r_step=0.25, alpha_step=0.25, refine_rounds=2)


def pruning_scenario(k):
    """Scenario k of the pruning draw: even k LTSC (T 1..4, constant and adaptive
    compression in turn), odd k STSC (clean SIC and layer-2 interference in turn)."""
    rng = np.random.default_rng([24, k])
    if k % 2 == 0:
        comp = (CONST, ADAPT)[k // 2 % 2]
        cfg = cli._rand_system(rng, "ltsc", int(rng.integers(1, 5)))
    else:
        comp = CONST
        cfg = cli._rand_system(rng, "stsc", 2, variant=bool(k // 2 % 2))
    return cfg, comp, int(rng.integers(3, 11))


def test_pruned_scan_matches_the_full_lattice(monkeypatch):
    # every bc and sl result of the pruned scan is the full-lattice reference's,
    # bit for bit, metadata included; every cell a pruned pass left out,
    # evaluated in full, is strictly below the incumbent it was left out against
    sides, row_bound, reaches = opt._Evaluator.sides, opt._row_bound, opt._reaches
    passes = []

    def recording_sides(self, r1v, alpha):
        for side, p1 in sides(self, r1v, alpha):
            passes.append([side[0], alpha])
            yield side, p1

    def recording_bound(r1, r2v, p1):
        passes[-1].append(r2v)
        return row_bound(r1, r2v, p1)

    def recording_reaches(bound, weights, floor):
        out = reaches(bound, weights, floor)
        passes[-1] += [floor, out]
        return out

    monkeypatch.setattr(opt._Evaluator, "sides", recording_sides)
    monkeypatch.setattr(opt, "_row_bound", recording_bound)
    monkeypatch.setattr(opt, "_reaches", recording_reaches)
    kinds, skipped, cells = set(), 0, 0
    for k in range(60):
        cfg, comp, quad_n = pruning_scenario(k)
        kinds.add((cfg.channel_regime, cfg.model_s.kind, comp.kind, cfg.bc_layer2_interference))
        passes.clear()
        ev = opt._Evaluator(cfg, comp, "analytic", quad_n)
        got = opt._optimize(ev, ("bc", "sl"), PRUNE_GRID)
        assert_results_equal(got["sl"], reference_sl(cfg, comp, "analytic", PRUNE_GRID, quad_n))
        assert_results_equal(got["bc"], reference_bc(cfg, comp, "analytic", PRUNE_GRID, quad_n))
        full = opt._Evaluator(cfg, comp, "analytic", quad_n)
        for r1v, alpha, r2v, floor, kept in passes:
            if floor == -np.inf:  # no incumbent yet: every row formed
                assert kept.all()
                continue
            cells += len(r1v) * len(r2v)
            if not kept.all():
                eta = reference_block_eta(full, r1v, r2v, alpha)[~kept]
                assert np.all(eta < floor), (k, alpha, r1v[~kept], floor)
                skipped += eta.size
    assert {(r, s) for r, s, *_ in kinds} >= {(r, s) for r in ("ltsc", "stsc")
                                               for s in ("rayleigh", "rician", "pointmass")}
    assert {(c, v) for _, _, c, v in kinds} == {("constant", False), ("adaptive", False),
                                                ("constant", True)}
    assert skipped > cells / 4


def per_node_scenario(k):
    """LTSC scenario k of the per-node pruning draw: T = 1 + k % 6, constant and
    adaptive compression in turn, Rayleigh, Rician and point-mass S in turn,
    and a point-mass D in every fourth."""
    rng = np.random.default_rng([30, k])
    s_kind = ("rayleigh", "rician", "pointmass")[k // 2 % 3]
    model_s = (FadingModel("pointmass", point_value=float(rng.uniform(0.2, 3.0)))
               if s_kind == "pointmass" else
               FadingModel(s_kind, float(rng.uniform(0.3, 10.0)),
                           rician_k=float(rng.uniform(0.0, 6.0)) if s_kind == "rician" else 0.0))
    model_d = (FadingModel("pointmass", point_value=float(rng.uniform(0.3, 8.0))) if k % 4 == 3
               else FadingModel("rician", float(rng.uniform(0.3, 30.0)),
                                rician_k=float(rng.uniform(0.0, 4.0))))
    cfg = SystemConfig(float(rng.uniform(0.3, 5.0)), float(rng.uniform(0.0, 3.0)), 1 + k % 6,
                       model_d, model_s)
    return cfg, (CONST, ADAPT)[k % 2], int(rng.integers(3, 11))


def test_per_node_prune_drops_only_beaten_rows(monkeypatch):
    # every row a per-node scan leaves out, formed in full, lies at every node
    # below a line of the staircase it was tested against, by the margin, at
    # lam = 0 and lam_hi; and every class is the one the scan gives with that
    # test switched off, which forms every per-node row, bit for bit
    sides, row_bound, reaches, beaten = (opt._Evaluator.sides, opt._row_bound, opt._reaches,
                                         opt._beaten)
    passes = []

    def recording_sides(self, r1v, alpha):
        for side, p1 in sides(self, r1v, alpha):
            passes.append({"r1": side[0], "alpha": alpha})
            yield side, p1

    def recording_bound(r1, r2v, p1):
        passes[-1]["r2"] = r2v
        return row_bound(r1, r2v, p1)

    def recording_reaches(bound, weights, floor):
        passes[-1]["reaches"] = reaches(bound, weights, floor)
        return passes[-1]["reaches"]

    def recording_beaten(lines, bound, lam_hi):
        passes[-1].update(lines=lines, lam_hi=lam_hi, beaten=beaten(lines, bound, lam_hi))
        return passes[-1]["beaten"]

    for name, fn in (("_row_bound", recording_bound), ("_reaches", recording_reaches),
                     ("_beaten", recording_beaten)):
        monkeypatch.setattr(opt, name, fn)
    monkeypatch.setattr(opt._Evaluator, "sides", recording_sides)
    kinds, dropped, formed = set(), 0, 0
    for k in range(36):
        cfg, comp, quad_n = per_node_scenario(k)
        kinds.add((cfg.max_rounds, comp.kind, cfg.model_s.kind, cfg.model_d.kind))
        passes.clear()
        got = opt.optima(cfg, ALL_CLASSES, comp, grid_spec=PRUNE_GRID, quad_n=quad_n)
        grid = node_grid(cfg, quad_n)
        for p in passes:
            if "beaten" not in p:  # no staircase yet, or a scan without fronts
                continue
            drop = p["beaten"] & ~p["reaches"]
            formed += np.count_nonzero(~drop)
            if not drop.any():
                continue
            dropped += np.count_nonzero(drop)
            reward, length = opt.node_reward_length(
                cfg, p["r1"][drop][:, None, None], p["r2"][None, :, None],
                np.float64(p["alpha"]), grid, comp)
            lam_hi = p["lam_hi"]
            at_0 = (reward + opt._slack(reward, length, 0.0))[:, :, None]
            at_hi = (reward - lam_hi * length + opt._slack(reward, length, lam_hi))[:, :, None]
            v0, v1 = p["lines"]  # (m, nd)
            assert np.all(((v0 > at_0) & (v1 > at_hi)).any(axis=2)), (k, p["alpha"])
        monkeypatch.setattr(opt, "_beaten", lambda lines, bound, lam_hi: np.zeros(len(bound[0]),
                                                                                  bool))
        want = opt.optima(cfg, ALL_CLASSES, comp, grid_spec=PRUNE_GRID, quad_n=quad_n)
        monkeypatch.setattr(opt, "_beaten", recording_beaten)
        for cls in ALL_CLASSES:
            assert_results_equal(got[cls], want[cls])
    assert {T for T, *_ in kinds} == set(range(1, 7))
    assert {(c, s) for _, c, s, _ in kinds} == {(c, s) for c in ("constant", "adaptive")
                                                for s in ("rayleigh", "rician", "pointmass")}
    assert {d for *_, d in kinds} == {"rician", "pointmass"}
    assert dropped > formed / 4


def reference_split_gain(a, d, out=None):
    """channel._split_gain before its unmasked branch: the masks on every call."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    pos = a > 0
    if np.any(pos & (d <= 0)):
        raise ValueError("d must be > 0 where a > 0")
    out = np.empty(np.broadcast_shapes(a.shape, d.shape)) if out is None else out
    np.copyto(out, d)
    np.copyto(out, 1.0, where=d <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, out, out=out)
    np.copyto(out, 0.0, where=~pos)
    return np.add(1.0, out, out=out)


SPLIT_EDGES = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2e-308, 1e-300, 0.5, 1.0, 3.7, 1e300, 1.7e308, -1.0])


@pytest.mark.parametrize("seed", range(24))
def test_split_gain_matches_the_masked_form_bit_for_bit(seed):
    # a >= 0 against d > 0 takes the unmasked branch; a NaN, a negative a or
    # a d <= 0 anywhere takes the masks, and d <= 0 where a > 0 still raises
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a, d = (np.where(rng.random(n) < 0.5, rng.choice(SPLIT_EDGES, n), rng.exponential(2.0, n))
            for _ in range(2))
    if seed % 3 == 0:
        a, d = np.abs(a), np.abs(d) + 5e-324  # every d > 0: mostly the unmasked branch
        if seed % 6 == 0:
            a[rng.integers(n)] = rng.choice([0.0, -0.0, np.inf])
    elif seed % 3 == 1:
        d = np.where(a > 0, np.abs(d) + 5e-324, d)  # d <= 0 only where a <= 0 or NaN
    shapes = [(a, d), (a[:, None], d[None, :]), (a[0], d), (a, d[0]), (a[0], d[0])]
    for x, y in shapes:
        with np.errstate(over="ignore"):
            try:
                want = reference_split_gain(x, y)
            except ValueError:
                with pytest.raises(ValueError, match="d must be > 0"):
                    _split_gain(x, y)
                continue
            for buf in (None, np.empty(np.shape(want))):
                got = _split_gain(x, y, out=buf)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                if buf is not None:
                    assert got is buf


def reference_slot_threshold(R, l, p_sig, p_int, a, d, out=None):
    """channel.slot_threshold before it took the offset c: b = 1 + a/d and a/b
    formed on every call."""
    R = np.asarray(R, dtype=float)
    p_sig = np.asarray(p_sig, dtype=float)
    p_int = np.asarray(p_int, dtype=float)
    a = np.asarray(a, dtype=float)
    b = _split_gain(a, d, out=out)
    with np.errstate(over="ignore"):
        z = np.exp2(2.0 * np.maximum(R, 0.0) / l)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = p_sig - (z - 1.0) * p_int
        thr = np.asarray(np.subtract((z - 1.0) / den, np.divide(a, b, out=b), out=out))
    np.copyto(thr, np.inf, where=(den <= 0) | np.isposinf(z))
    np.copyto(thr, -np.inf, where=R <= 0)
    return thr if thr.shape else float(thr)


def reference_infer_s_hat(R1, k, alpha, d, a_d, P, s_min, out=None):
    """channel.infer_s_hat before it took the offset c."""
    thr = reference_slot_threshold(R1, k, alpha * np.asarray(P, dtype=float),
                                   (1.0 - np.asarray(alpha, dtype=float)) * P, a_d, d, out=out)
    out = np.maximum(np.asarray(thr, dtype=float), np.asarray(s_min, dtype=float), out=out)
    return out if out.shape else float(out)


@pytest.mark.parametrize("seed", range(12))
def test_threshold_offset_keeps_the_parent_bits(seed):
    # slot_threshold and infer_s_hat at c = threshold_offset(a, d) give the
    # bits of the (a, d) forms: NaN d, d = 0 at a = 0, subnormal d, R <= 0, an
    # overflowed 2^(2R/l), p_int = 0 and out= buffers among the draws; a > 0
    # at d <= 0 still raises
    rng = np.random.default_rng([30, seed])
    n = 64
    d = rng.exponential(2.0, n)
    a = conservative_gain(d, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.1, 5.0)),
                          float(rng.uniform(0.0, 3.0)))
    a[:4], d[:4] = 0.0, (0.0, -0.0, np.nan, 5e-324)  # a = 0 ignores d
    a[4:7], d[4:7] = rng.uniform(0.1, 3.0, 3), (np.nan, 5e-324, 2.2e-308)
    R = rng.uniform(-1.0, 4.0, n)
    R[7:11] = 0.0, -0.0, 600.0, 1e4  # R <= 0, then 2^(2R/l) overflows at l = 1
    p_sig, p_int = rng.uniform(0.0, 3.0, n), np.where(rng.random(n) < 0.5, 0.0,
                                                      rng.uniform(0.0, 3.0, n))
    alpha, P, s_min = rng.uniform(0.0, 1.0, n), float(rng.uniform(0.1, 5.0)), 0.3
    cases = [(R, a, d), (R[:, None], a[None, :], d[None, :]), (R[:, None], a, d), (R, a[9], d[9])]
    for l, (R_, a_, d_) in itertools.product((1, 2, 5), cases):
        shape = np.broadcast_shapes(np.shape(R_), np.shape(a_), p_sig.shape)
        for buffers in (False, True):
            def out():
                return np.full(shape, np.nan) if buffers else None

            with np.errstate(over="ignore"):  # a/d at a subnormal d, in both forms
                pairs = [(slot_threshold(R_, l, p_sig, p_int, threshold_offset(a_, d_), out=out()),
                          reference_slot_threshold(R_, l, p_sig, p_int, a_, d_, out=out())),
                         (infer_s_hat(R_, l, alpha, threshold_offset(a_, d_), P, s_min, out=out()),
                          reference_infer_s_hat(R_, l, alpha, d_, a_, P, s_min, out=out()))]
            for got, want in pairs:
                assert got.shape == want.shape == shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
    buf = np.full(n, np.nan)
    with np.errstate(over="ignore"):
        assert threshold_offset(a, d, out=buf) is buf
    for bad in (0.0, -0.0, -1.0, -5e-324):
        with pytest.raises(ValueError, match="d must be > 0"):
            reference_slot_threshold(R, 1, p_sig, p_int, a + 1.0, np.full(n, bad))
        with pytest.raises(ValueError, match="d must be > 0"):
            threshold_offset(a + 1.0, np.full(n, bad))


# ---- the Monte Carlo stepper


def reference_run_batch(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
                        rng: np.random.Generator, n: int, trace: bool = False):
    """simulate._run_batch as written before each slot formed its gains once:
    a, b and g are recomputed by three mutual_info calls per slot, and layer 2
    takes both of its branches in full."""
    T, P = cfg.max_rounds, cfg.power
    cmax, s_min = cfg.backhaul_capacity, cfg.s_min
    ltsc = cfg.channel_regime == "ltsc"

    if ltsc:
        d0 = cfg.model_d.sample(rng, n)
        s0 = cfg.model_s.sample(rng, n)
        d1 = d0
    else:
        d1 = cfg.model_d.sample(rng, n)
        s1 = cfg.model_s.sample(rng, n)
    if policy.mode == "no_lcsit":
        r1, r2, alpha = (np.full(n, float(policy.r1)), np.full(n, float(policy.r2)),
                         np.full(n, float(policy.alpha)))
    else:
        grid = quantize(cfg.model_d, len(policy.r1))
        idx = grid.node_index(d1)
        r1, r2, alpha = policy.r1[idx], policy.r2[idx], policy.alpha[idx]

    acc1 = np.zeros(n)
    acc2 = np.zeros(n)
    k1 = np.zeros(n, dtype=np.int64)   # 0 = undecoded
    k2 = np.zeros(n, dtype=np.int64)
    adapted = np.zeros(n, dtype=bool)
    a_hat = np.zeros(n)
    s_hat = np.full(n, np.nan)
    ack_slot = np.zeros(n, dtype=np.int64)
    violations = 0

    if trace:
        d_tr, s_tr = np.zeros((T, n)), np.zeros((T, n))
        acc1_tr, acc2_tr = np.zeros((T, n)), np.zeros((T, n))

    for t in range(1, T + 1):
        if ltsc:
            dt, st = d0, s0
        elif t == 1:
            dt, st = d1, s1
        else:
            dt = cfg.model_d.sample(rng, n)
            st = cfg.model_s.sample(rng, n)
        alpha_t = alpha if (policy.mode == "no_lcsit" or ltsc) else policy.alpha[grid.node_index(dt)]

        a_t = conservative_gain(dt, s_min, P, cmax)
        if comp.adaptive:
            a_t = np.where(adapted, a_hat, a_t)

        pend1 = k1 == 0
        pend2 = k2 == 0
        p_sig1, p_sig2 = alpha_t * P, (1.0 - alpha_t) * P
        p_int2 = p_sig1 if cfg.bc_layer2_interference else 0.0
        i1 = mutual_info(p_sig1, p_sig2, a_t, st, dt)
        i2 = np.where(pend1,
                      mutual_info(p_sig2, p_int2, a_t, st, dt),
                      mutual_info(P, 0.0, a_t, st, dt))
        acc1 = np.where(pend1, acc1 + i1, acc1)
        acc2 = np.where(pend2, acc2 + i2, acc2)
        k1[pend1 & (acc1 >= r1)] = t
        k2[pend2 & (k1 > 0) & (acc2 >= r2)] = t

        if comp.adaptive:
            ack = (k1 == t) & (k2 == 0)  # layer-1-only feedback this slot
            if np.any(ack):
                a_d = conservative_gain(dt[ack], s_min, P, cmax)
                sh = infer_s_hat(r1[ack], t, alpha_t[ack], threshold_offset(a_d, dt[ack]), P,
                                 s_min)
                s_hat[ack] = sh
                a_hat[ack] = conservative_gain(dt[ack], sh, P, cmax)
                adapted |= ack
                ack_slot[ack] = t
                bad = (st[ack] < sh - sim._FEAS_TOL) | (
                    backhaul_usage(a_hat[ack], dt[ack], st[ack], P) > cmax + sim._FEAS_TOL
                )
                violations += int(np.count_nonzero(bad))

        if trace:
            d_tr[t - 1], s_tr[t - 1] = dt, st
            acc1_tr[t - 1], acc2_tr[t - 1] = acc1, acc2

    if np.isnan(acc1).any() or np.isnan(acc2).any():
        raise NumericalError("mutual information is NaN in a Monte Carlo session")
    lengths = np.where(k2 > 0, k2, T)
    reward = r1 * (k1 > 0) + r2 * (k2 > 0)
    out = {
        "c1": np.bincount(k1, minlength=T + 1),
        "c2": np.bincount(k2, minlength=T + 1),
        "sum_L": int(lengths.sum()),
        "sum_L2": int((lengths * lengths).sum()),
        "sum_R": float(reward.sum()),
        "sum_R2": float((reward * reward).sum()),
        "sum_RL": float((reward * lengths).sum()),
        "adaptations": int(np.count_nonzero(adapted)),
        "violations": violations,
        "n": n,
    }
    if trace:
        out["trace"] = (d_tr, s_tr, acc1_tr, acc2_tr, k1, k2, lengths, ack_slot, s_hat)
    return out


MC_D = FadingModel("rician", 2.0, rician_k=1.5)
MC_S = FadingModel("rayleigh", 1.2)
MC_SINGLE = RatePolicy.constant(0.9, 0.45, 0.8)
# four D nodes, each with its own tuple; one node sends a single layer
MC_PER_NODE = RatePolicy.per_node([0.5, 0.8, 1.1, 1.4], [0.6, 0.4, 0.0, 0.3],
                                  [0.7, 0.85, 1.0, 0.9])
# (regime, compression, policy, D, S, bc_layer2_interference); the simulator
# takes adaptive compression under LTSC only (test_simulate.py::test_adaptive_needs_ltsc)
MC_CASES = {
    "ltsc-constant-single": ("ltsc", CONST, MC_SINGLE, MC_D, MC_S, False),
    "ltsc-constant-per-node": ("ltsc", CONST, MC_PER_NODE, MC_D, MC_S, False),
    "ltsc-adaptive-single": ("ltsc", ADAPT, MC_SINGLE, MC_D, MC_S, False),
    "ltsc-adaptive-per-node": ("ltsc", ADAPT, MC_PER_NODE, MC_D, MC_S, False),
    "ltsc-adaptive-bc": ("ltsc", ADAPT, MC_SINGLE, MC_D, MC_S, True),
    "ltsc-adaptive-pointmass-s": ("ltsc", ADAPT, MC_SINGLE, MC_D,
                                  FadingModel("pointmass", point_value=0.7), False),
    "ltsc-adaptive-dead-relay": ("ltsc", ADAPT, MC_SINGLE,
                                 FadingModel("pointmass", point_value=0.0), MC_S, False),
    "stsc-single": ("stsc", CONST, MC_SINGLE, MC_D, MC_S, False),
    "stsc-per-node": ("stsc", CONST, MC_PER_NODE, MC_D, MC_S, False),
    "stsc-bc-rician-s": ("stsc", CONST, MC_SINGLE, MC_D,
                         FadingModel("rician", 1.0, rician_k=2.0), True),
    "stsc-bc-pointmass-s": ("stsc", CONST, MC_PER_NODE, MC_D,
                            FadingModel("pointmass", point_value=0.7), True),
    "stsc-dead-relay": ("stsc", CONST, MC_SINGLE,
                        FadingModel("pointmass", point_value=0.0), MC_S, True),
}


def assert_batches_equal(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if key == "trace":
            for g, w in zip(got[key], want[key], strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)
        elif isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key])
        else:
            assert type(got[key]) is type(want[key]) and got[key] == want[key], key


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("T", [1, 2, 3, 5])
@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_run_batch_matches_reference(case, T, n):
    regime, comp, policy, model_d, model_s, bc = MC_CASES[case]
    cfg = SystemConfig(power=1.5, backhaul_capacity=0.8, max_rounds=T, model_d=model_d,
                       model_s=model_s, channel_regime=regime, bc_layer2_interference=bc)
    check_supported(cfg, comp, backend="mc")
    for trace in (False, True):
        runs = [f(cfg, policy, comp, np.random.default_rng(7 * T + n), n, trace=trace)
                for f in (sim._run_batch, reference_run_batch)]
        assert_batches_equal(*runs)
    if comp.adaptive and n == 4096 and T > 1:
        assert runs[0]["adaptations"] > 0  # the adaptive branch ran


@pytest.mark.parametrize("T", [1, 2, 3, 5])
@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_reused_workspace_matches_reference(case, T):
    # one workspace through a full, a short, a one-session and a full batch;
    # it starts poisoned, so any buffer read before it is written shows
    regime, comp, policy, model_d, model_s, bc = MC_CASES[case]
    cfg = SystemConfig(power=1.5, backhaul_capacity=0.8, max_rounds=T, model_d=model_d,
                       model_s=model_s, channel_regime=regime, bc_layer2_interference=bc)
    ws = sim._workspace(4096)
    for buf, poison in zip(ws, (np.nan, -1, True), strict=True):
        buf.fill(poison)
    for batch, n in enumerate([4096, 7, 1, 4096]):
        for trace in (False, True):
            seed = 100 * T + batch
            got = sim._run_batch(cfg, policy, comp, np.random.default_rng(seed), n,
                                 trace=trace, ws=ws)
            want = reference_run_batch(cfg, policy, comp, np.random.default_rng(seed), n,
                                       trace=trace)
            assert_batches_equal(got, want)


@pytest.mark.parametrize("regime, comp", [("ltsc", CONST), ("ltsc", ADAPT), ("stsc", CONST)])
def test_run_batch_overflowed_backhaul_raises_like_reference(regime, comp):
    # 2^(2 Cmax) overflows at Cmax = 1e6: the gains are inf and f_I is NaN
    cfg = SystemConfig(power=1.0, backhaul_capacity=1e6, max_rounds=2, model_d=MC_D,
                       model_s=MC_S, channel_regime=regime)
    for run in (sim._run_batch, reference_run_batch):
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericalError, match="mutual information"):
            run(cfg, MC_SINGLE, comp, np.random.default_rng(0), 64)
