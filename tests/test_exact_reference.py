"""Exact-equality oracles for the LTSC and STSC evaluators.

The evaluators share one S-link cdf pass per threshold array and evaluate the
STSC inner expectations only on cells that carry outer mass.  Both are meant
to change no bit of any result, so the straightforward forms they replaced
are kept here as references and compared with np.array_equal.
"""

import numpy as np
import pytest

from relharq.channel import (CompressionPolicy, SystemConfig, adaptive_gain,
                             conservative_gain, infer_s_hat, mutual_info,
                             slot_threshold)
from relharq.fading import FadingModel, QuadratureGrid, quantize
from relharq.ltsc import node_tables
from relharq.stsc import stsc_quantities

CONST = CompressionPolicy("constant")
ADAPT = CompressionPolicy("adaptive")


def _pos(x):
    return np.maximum(x, 0.0)


def reference_node_tables(
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
            slot_threshold(r1, l_eff, alpha * P, abar * P, a, d), shape
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
        same_slot = np.broadcast_to(slot_threshold(r2, l, abar * P, 0.0, a, d), shape)
        chain = {l: same_slot}
        if comp.adaptive:
            s_hat = infer_s_hat(r1, l, alpha, d, a, P, s_min)
            # +inf means "layer 1 cannot decode at l"; the interval is empty,
            # substitute a dummy so a_hat stays finite
            s_hat = np.where(np.isposinf(s_hat), 1.0, s_hat)
            a_sl = adaptive_gain(d, s_hat, P, cmax)
        else:
            a_sl = a
        prev = same_slot
        for k in range(l + 1, T + 1):
            raw = slot_threshold(r2 - l * g2, k - l, P, 0.0, a_sl, d)
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
    d2, wd2, a2 = d1, wd, a1  # D2 is i.i.d. with D1

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
            thr = slot_threshold(res[i : i + step, ..., None], 1, p_sig, p_int, a2, d2)
            out[i : i + step] = Fs2(thr) @ wd2
        return out

    q_miss = inner_fail_mass(h, ap, abp)                            # (q1, nd, ns)
    phi_miss = inner_fail_mass(r2p, P, 0.0)                         # (q2, nd, ns)

    # gamma: S2 in [layer-1 residual threshold, layer-2 BC residual threshold)
    gam = np.empty((q1, q2, nd, ns))
    hi_cells = q2 * nd * ns * len(d2)
    F_hi = Fs2(slot_threshold(r2p[:, ..., None], 1, abp, p_int2, a2, d2)) if hi_cells <= chunk_cells else None
    step = max(1, chunk_cells // hi_cells)
    for i in range(0, q1, step):
        F_lo_t = Fs2(slot_threshold(h[i : i + step, None, ..., None], 1, ap, abp, a2, d2))
        fh = F_hi if F_hi is not None else Fs2(slot_threshold(r2p[:, ..., None], 1, abp, p_int2, a2, d2))
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
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
class TestNodeTablesMatchReference:
    def test_tuple_block(self, T, comp, s_kind):
        # the optimizer's (r1, r2) block at one alpha, zero rates included
        grid = quantize(D_RICIAN, 11)
        r1 = np.linspace(0.0, 3.0, 7)[:, None, None]
        r2 = np.linspace(0.0, 1.5, 6)[None, :, None]
        for P in (0.5, 4.0):
            cfg = ltsc_cfg(s_kind, T, P=P)
            for alpha in (0.0, 0.6, 0.93, 1.0):
                args = (cfg, r1, r2, np.float64(alpha), grid, comp)
                assert_tables_equal(node_tables(*args), reference_node_tables(*args))

    def test_scalar_tuple_and_single_slot_thresholds(self, T, comp, s_kind):
        grid = quantize(D_RICIAN, 9)
        cfg = ltsc_cfg(s_kind, T)
        for single in (False, True):
            args = (cfg, 0.9, 0.4, 0.85, grid, comp, single)
            assert_tables_equal(node_tables(*args), reference_node_tables(*args))

    def test_per_node_policy(self, T, comp, s_kind):
        grid = quantize(D_RICIAN, 10)
        rng = np.random.default_rng(T)
        r1, r2 = rng.uniform(0.0, 2.5, 10), rng.uniform(0.0, 1.2, 10)
        alpha = rng.uniform(0.5, 1.0, 10)
        args = (ltsc_cfg(s_kind, T, P=3.0), r1, r2, alpha, grid, comp)
        assert_tables_equal(node_tables(*args), reference_node_tables(*args))

    def test_pointmass_relay_link(self, T, comp, s_kind):
        cfg = ltsc_cfg(s_kind, T, model_d=D_POINT)
        grid = quantize(D_POINT, 8)
        args = (cfg, np.linspace(0.0, 2.0, 5)[:, None, None],
                np.linspace(0.0, 1.0, 4)[None, :, None], np.float64(0.9), grid, comp)
        assert_tables_equal(node_tables(*args), reference_node_tables(*args))


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
def test_node_tables_nan_thresholds_match_reference(comp):
    # against zero interference (alpha = 1 for layer 1, always for layer 2) a
    # rate past 512 l bit/symbol overflows 2^(2R/l) for l = 1, where
    # slot_threshold must give +inf (an outage), not inf * 0 = NaN
    grid = quantize(D_RICIAN, 7)
    args = (ltsc_cfg("rician", 3), np.array([0.5, 600.0])[:, None, None],
            np.array([0.3, 600.0])[None, :, None], np.float64(1.0), grid, comp)
    want = reference_node_tables(*args)
    p1, p2o, p2d = want
    assert all(np.isfinite(t).all() for t in want)
    assert np.all(p1[1] == 1.0)
    assert np.all(p2o[1] == 1.0) and np.all(p2o[:, 1] == 1.0)
    assert np.all(p2d[1] == 0.0) and np.all(p2d[:, 1] == 0.0)
    assert_tables_equal(node_tables(*args), want)


def count_cdf_points(monkeypatch):
    points = []
    cdf = FadingModel.cdf

    def counting_cdf(self, x):
        points.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(FadingModel, "cdf", counting_cdf)
    return points


def test_constant_block_evaluates_fewer_cdf_points_than_cells(monkeypatch):
    q1, q2, nd = 16, 16, 8
    cfg, grid = ltsc_cfg("rician", 3), quantize(D_RICIAN, nd)
    args = (cfg, np.linspace(0.0, 3.0, q1)[:, None, None],
            np.linspace(0.0, 1.5, q2)[None, :, None], np.float64(0.8), grid, CONST)
    points = count_cdf_points(monkeypatch)
    node_tables(*args)
    assert sum(points) < q1 * q2 * nd
    points.clear()
    reference_node_tables(*args)
    assert sum(points) > 10 * q1 * q2 * nd


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("variant", [False, True], ids=["clean-sic", "interference"])
@pytest.mark.parametrize("n", [9, 16])
# chunked: several d1-row chunks, and several gamma block batches at n = 9;
# one-block: one d1 row per chunk and one (r1, r2, d1) block per batch
@pytest.mark.parametrize("chunk_cells", [16_000_000, 3000, 1],
                         ids=["one-chunk", "chunked", "one-block"])
@pytest.mark.parametrize("r1, r2", [
    (np.linspace(0.0, 2.5, 6), np.linspace(0.0, 1.5, 5)),
    ([0.9], [0.5]),  # one tuple: the outer masses leave most cells empty
    # the live-block gate may assume no order along r1 or r2
    ([1.7, 0.0, 2.5, 0.4, 1.1, 0.8, 2.0], [0.9, 0.0, 1.5, 0.3, 0.6]),
], ids=["block", "tuple", "unsorted"])
def test_stsc_quantities_match_reference(s_kind, variant, n, chunk_cells, r1, r2):
    # alpha = 0 leaves every gamma block dead, alpha = 1 nearly every one live
    for P in (0.7, 4.0):
        cfg = SystemConfig(power=P, backhaul_capacity=1.2, max_rounds=2,
                           model_d=D_RICIAN, model_s=S_MODELS[s_kind],
                           channel_regime="stsc", bc_layer2_interference=variant)
        for alpha in (0.0, 0.6, 0.95, 1.0):
            got = stsc_quantities(cfg, r1, r2, alpha, n=n, chunk_cells=chunk_cells)
            want = reference_stsc_quantities(cfg, r1, r2, alpha, n=n)
            assert sorted(got) == sorted(want)
            for key in want:
                assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
def test_stsc_quantities_pointmass_relay_link_match_reference(s_kind):
    cfg = SystemConfig(power=2.0, backhaul_capacity=1.2, max_rounds=2,
                       model_d=D_POINT, model_s=S_MODELS[s_kind], channel_regime="stsc")
    r1, r2 = np.linspace(0.0, 2.5, 4), np.linspace(0.0, 1.5, 3)
    got = stsc_quantities(cfg, r1, r2, 0.9, n=12)
    want = reference_stsc_quantities(cfg, r1, r2, 0.9, n=12)
    for key in want:
        assert np.array_equal(got[key], want[key]), key
