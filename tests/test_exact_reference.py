"""Exact-equality oracles for the LTSC and STSC evaluators and the optimizer.

The evaluators share one S-link cdf pass per threshold array.  The optimizer
finds every policy class in one lattice pass and runs Dinkelbach on per-node
candidate fronts.  All of these are meant to change no bit of any result, so
the straightforward forms they replaced are kept here as references and
compared with np.array_equal and ==.

The one exception is the STSC inner expectation over (D2, S2): it is now one
function G of one threshold per cell (`stsc.node_cdf_sum`), summed in another
order than the reference's per-node residual cdfs, so p1_out_2 and p2_out_2
are compared within STSC_ATOL; p1_out_1 and p2_dec_1 stay exact.
"""

import tracemalloc

import numpy as np
import pytest

from relharq import ltsc
from relharq import optimize as opt
from relharq.channel import (CompressionPolicy, RatePolicy, SystemConfig,
                             conservative_gain, infer_s_hat, mutual_info,
                             slot_threshold)
from relharq.fading import FadingModel, QuadratureGrid, quantize
from relharq.ltsc import node_tables
from relharq.optimize import GridSpec, OptimizationResult
from relharq.stsc import stsc_quantities
from relharq.tables import NumericalError

CONST = CompressionPolicy("constant")
ADAPT = CompressionPolicy("adaptive")
STSC_ATOL = 16 * np.finfo(float).eps  # 3.6e-15; the largest move seen is 8.9e-16


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
            a_sl = conservative_gain(d, s_hat, P, cmax)
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


def assert_stsc_quantities_close(got, want):
    assert sorted(got) == sorted(want)
    for key in ("p1_out_1", "p2_dec_1"):
        assert np.array_equal(got[key], want[key]), key
    for key in ("p1_out_2", "p2_out_2"):
        assert got[key].shape == want[key].shape
        assert np.all(np.abs(got[key] - want[key]) <= STSC_ATOL), key


@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
@pytest.mark.parametrize("variant", [False, True], ids=["clean-sic", "interference"])
@pytest.mark.parametrize("n", [9, 16])
# chunked: the Rician G runs over several chunks of support cells;
# one-block: one support cell per chunk
@pytest.mark.parametrize("chunk_cells", [16_000_000, 3000, 1],
                         ids=["one-chunk", "chunked", "one-block"])
@pytest.mark.parametrize("r1, r2", [
    (np.linspace(0.0, 2.5, 6), np.linspace(0.0, 1.5, 5)),
    ([0.9], [0.5]),  # one tuple: the outer masses leave most cells empty
    # the support of G(u2) may assume no order along r1 or r2
    ([1.7, 0.0, 2.5, 0.4, 1.1, 0.8, 2.0], [0.9, 0.0, 1.5, 0.3, 0.6]),
], ids=["block", "tuple", "unsorted"])
def test_stsc_quantities_match_reference(s_kind, variant, n, chunk_cells, r1, r2):
    # alpha = 0 leaves gamma 0 everywhere, alpha = 1 live on nearly every cell
    for P in (0.7, 4.0):
        cfg = SystemConfig(power=P, backhaul_capacity=1.2, max_rounds=2,
                           model_d=D_RICIAN, model_s=S_MODELS[s_kind],
                           channel_regime="stsc", bc_layer2_interference=variant)
        for alpha in (0.0, 0.6, 0.95, 1.0):
            got = stsc_quantities(cfg, r1, r2, alpha, n=n, chunk_cells=chunk_cells)
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


# ---------------------------------------------------------------- optimizer

def reference_scan(ev, r1_axis, r2_axis, alpha_axis, best=None):
    for alpha in alpha_axis:
        eta = ev.block(r1_axis, r2_axis, float(alpha))
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


def reference_optimize_single_layer(cfg, comp, backend, grid_spec, quad_n, mc=None):
    """optimize_single_layer before the one-pass driver."""
    ev = opt._Evaluator(cfg, comp, backend, quad_n, mc)
    best = reference_scan(ev, grid_spec.r_axis(), np.array([0.0]), np.array([1.0]))
    best = reference_refine(ev, grid_spec, best, frozen_r2=0.0, frozen_alpha=1.0)
    return reference_result(ev, best, {"policy_class": "single_layer",
                                       "grid": (grid_spec.r_max, grid_spec.r_step)})


def reference_optimize_no_lcsit(cfg, comp, backend, grid_spec, quad_n, mc=None):
    """optimize_no_lcsit before the one-pass driver: its own single-layer run."""
    sl = reference_optimize_single_layer(cfg, comp, backend, grid_spec, quad_n, mc)
    ev = opt._Evaluator(cfg, comp, backend, quad_n, mc)
    seed = (sl.eta, float(sl.policy.alpha), float(sl.policy.r1), float(sl.policy.r2))
    best = reference_scan(ev, grid_spec.r_axis(), grid_spec.r_axis(),
                          grid_spec.alpha_axis(), best=seed)
    best = reference_refine(ev, grid_spec, best)
    return reference_result(ev, best, {
        "policy_class": "no_lcsit",
        "grid": (grid_spec.r_max, grid_spec.r_step, grid_spec.alpha_step),
        "single_layer_seed": seed})


def reference_optimize_lcsit(cfg, comp, grid_spec, n_nodes, quad_n, single_layer,
                             tol=1e-6, max_iter=50):
    """optimize_lcsit before the one-pass driver: every Dinkelbach iteration
    evaluates the full (alpha, r1, r2, node) lattice again."""
    nd = n_nodes if n_nodes is not None else quad_n
    if single_layer:
        base = reference_optimize_single_layer(cfg, comp, "analytic", grid_spec, quad_n)
        r2_axis, alpha_axis = np.array([0.0]), np.array([1.0])
    else:
        base = reference_optimize_no_lcsit(cfg, comp, "analytic", grid_spec, quad_n)
        r2_axis, alpha_axis = grid_spec.r_axis(), grid_spec.alpha_axis()
    r1_axis = grid_spec.r_axis()

    grid = quantize(cfg.model_d, nd)
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
    for _ in range(max_iter):
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
        if abs(lam_new - lam) < tol:
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return OptimizationResult(
        policy=RatePolicy.per_node(r1n, r2n, an), eta=lam, backend="analytic",
        metadata={"policy_class": "lcsit_single_layer" if single_layer else "lcsit",
                  "n_nodes": nd, "lambda_trajectory": trajectory,
                  "converged": converged, "iterations": len(trajectory) - 1,
                  "warning": None if converged else "fractional programming hit max_iter",
                  "seed_eta": base.eta})


def reference_optima(cfg, comp, classes, backend="analytic", grid_spec=GridSpec(),
                     quad_n=64, mc=None, n_nodes=None):
    """One reference call per class, as the CLI made them before the driver."""
    calls = {
        "sl": lambda: reference_optimize_single_layer(cfg, comp, backend, grid_spec,
                                                      quad_n, mc),
        "bc": lambda: reference_optimize_no_lcsit(cfg, comp, backend, grid_spec, quad_n, mc),
        "sl-lcsit": lambda: reference_optimize_lcsit(cfg, comp, grid_spec, n_nodes, quad_n,
                                                     single_layer=True),
        "bc-lcsit": lambda: reference_optimize_lcsit(cfg, comp, grid_spec, n_nodes, quad_n,
                                                     single_layer=False),
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
    got = opt._optimize(cfg, comp, classes, **kw)
    want = reference_optima(cfg, comp, classes, **kw)
    assert list(got) == list(want)
    for cls in classes:
        assert_results_equal(got[cls], want[cls])
    # the public functions are views of the same driver
    views = {"sl": lambda: opt.optimize_single_layer(
                 cfg, comp, kw.get("backend", "analytic"), kw["grid_spec"], kw["quad_n"],
                 kw.get("mc")),
             "bc": lambda: opt.optimize_no_lcsit(
                 cfg, comp, kw.get("backend", "analytic"), kw["grid_spec"], kw["quad_n"],
                 kw.get("mc")),
             "sl-lcsit": lambda: opt.optimize_lcsit(
                 cfg, comp, grid_spec=kw["grid_spec"], n_nodes=kw.get("n_nodes"),
                 quad_n=kw["quad_n"], single_layer=True),
             "bc-lcsit": lambda: opt.optimize_lcsit(
                 cfg, comp, grid_spec=kw["grid_spec"], n_nodes=kw.get("n_nodes"),
                 quad_n=kw["quad_n"])}
    for cls in classes:
        assert_results_equal(views[cls](), want[cls])
    return got


OPT_GRID = GridSpec(r_max=3.0, r_step=0.25, alpha_step=0.25, refine_rounds=2)
D_RAYLEIGH = FadingModel("rayleigh", 2.0)


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_optimizer_matches_reference(T, comp):
    for s_kind, n_nodes in (("rayleigh", None), ("rician", 6)):
        cfg = ltsc_cfg(s_kind, T, P=1.5, cmax=1.0)
        assert_optima_match(cfg, comp, grid_spec=OPT_GRID, quad_n=16, n_nodes=n_nodes)


@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("s_kind", sorted(S_MODELS))
def test_optimizer_pointmass_relay_link_matches_reference(s_kind, comp):
    # one node whatever n_nodes asks; n_nodes != quad_n evaluates the node grid apart
    cfg = ltsc_cfg(s_kind, 2, model_d=D_POINT)
    for n_nodes in (None, 1, 5):
        got = assert_optima_match(cfg, comp, grid_spec=OPT_GRID, quad_n=16, n_nodes=n_nodes)
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
    for n_nodes in (None, 5):
        assert_optima_match(cfg, CONST, grid_spec=OPT_GRID, quad_n=12, n_nodes=n_nodes)


def test_optimizer_stsc_matches_reference():
    cfg = SystemConfig(2.0, 1.5, 2, D_RAYLEIGH, S_MODELS["rician"], channel_regime="stsc")
    assert_optima_match(cfg, CONST, ("bc", "sl"), grid_spec=OPT_GRID, quad_n=12)


def test_optimizer_mc_backend_matches_reference():
    cfg = ltsc_cfg("rayleigh", 2, P=1.0, cmax=1.0)
    spec = GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.5, refine_rounds=1)
    assert_optima_match(cfg, CONST, ("bc", "sl"), backend="mc", grid_spec=spec, quad_n=8,
                        mc={"sessions": 300, "seed": 5})


def test_optimizer_full_lattice_fallbacks_match_reference(monkeypatch):
    # a block whose front is too large is evaluated again in full, and so is
    # every block while lambda < 0 (a reward shifted below zero forces that)
    cfg = ltsc_cfg("rician", 3, P=1.5, cmax=1.0)
    monkeypatch.setattr(opt, "_PAIR_CELLS", 0)
    for n_nodes in (None, 6):
        assert_optima_match(cfg, CONST, grid_spec=OPT_GRID, quad_n=10, n_nodes=n_nodes)
    monkeypatch.undo()
    rl = opt.node_reward_length

    def shifted(*args):
        reward, length = rl(*args)
        return reward - 5.0, length

    monkeypatch.setattr(opt, "node_reward_length", shifted)
    for n_nodes in (None, 6):
        got = assert_optima_match(cfg, CONST, grid_spec=OPT_GRID, quad_n=10, n_nodes=n_nodes)
        assert got["bc-lcsit"].metadata["lambda_trajectory"][-1] < 0


@pytest.mark.parametrize("seed", range(6))
def test_front_keeps_the_first_argmax(seed, monkeypatch):
    # near-ties one ulp apart, exact repeats, NaN rows and lam = 0, tiny or large
    monkeypatch.setattr(opt, "_PAIR_CELLS", 10**6)  # never fall back to the full block
    rng = np.random.default_rng(seed)
    q1, q2, nd = 9, 7, 5
    reward = rng.choice([0.0, 0.5, 0.7, 1.2], size=(q1, q2, nd))
    length = rng.choice([1.0, 1.5, 2.0, 2.5], size=(q1, q2, nd))
    ulps = rng.integers(-3, 4, size=(2, q1, q2, nd)) * (rng.random((2, q1, q2, nd)) < 0.5)
    reward = reward + ulps[0] * np.spacing(reward + 1.0)
    length = length + ulps[1] * np.spacing(length)
    if seed % 3 == 2:
        reward[rng.integers(q1), rng.integers(q2), 1] = np.nan
        length[rng.integers(q1), rng.integers(q2), 3] = np.nan
    pos, r_f, l_f = opt._front(reward, length)
    full_r, full_l = reward.reshape(-1, nd), length.reshape(-1, nd)
    assert len(pos) < q1 * q2
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


def count_node_table_cells(monkeypatch):
    cells = []
    tables = ltsc.node_tables

    def counting(*args, **kwargs):
        out = tables(*args, **kwargs)
        cells.append(out[0][..., 0].size)
        return out

    monkeypatch.setattr(ltsc, "node_tables", counting)
    return cells


def test_quartet_takes_about_one_lattice_pass(monkeypatch):
    # one figure-2 point on the coarse golden grid
    cfg = SystemConfig(1.0, 1.0, 2, FadingModel("rician", 1.0), FadingModel("rayleigh", 1.0))
    kw = {"grid_spec": OPT_GRID, "quad_n": 24}
    one_pass = len(OPT_GRID.r_axis()) ** 2 * len(OPT_GRID.alpha_axis()) * 24
    cells = count_node_table_cells(monkeypatch)
    opt._optimize(cfg, CONST, ALL_CLASSES, **kw)
    assert sum(cells) <= 1.5 * one_pass
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
                lambda: reference_optimize_lcsit(cfg, CONST, spec, n_nodes, 32, False)):
        run()  # untraced first: lazily built caches are not part of either peak
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # both peak inside node_tables on one (41, 41, 32) scan block, about 5 MB;
    # the driver's own Python objects (dicts, closure cells) add under 1 KiB
    assert peaks[0] <= peaks[1] + 4096
