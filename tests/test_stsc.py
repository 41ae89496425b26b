import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import special

from relharq.channel import (CompressionPolicy, RatePolicy, SystemConfig, conservative_gain,
                             mutual_info)
from relharq.config import GridSpec
from relharq.fading import SPLIT_POINTS, FadingModel
from relharq import fading, ltsc, optimize, stsc
from relharq.optimize import _Evaluator, _optimize, throughput
from relharq.stsc import node_cdf_sum, side_quantities
from relharq.tables import reward_length


def pm_cfg(d, s, cmax=1.0, P=1.0, variant=False):
    return SystemConfig(
        power=P,
        backhaul_capacity=cmax,
        max_rounds=2,
        model_d=FadingModel("pointmass", point_value=d),
        model_s=FadingModel("pointmass", point_value=s),
        channel_regime="stsc",
        bc_layer2_interference=variant,
    )


def rand_cfg(rng):
    kinds = ["rayleigh", "rician", "pointmass"]
    kd = kinds[rng.integers(0, 3)]
    ks = kinds[rng.integers(0, 2)]
    if kd == "pointmass":
        model_d = FadingModel("pointmass", point_value=float(rng.uniform(0.1, 5)))
    else:
        model_d = FadingModel(kd, float(rng.uniform(0.2, 10)), rician_k=float(rng.uniform(0, 8)))
    model_s = FadingModel(ks, float(rng.uniform(0.2, 10)), rician_k=float(rng.uniform(0, 8)))
    return SystemConfig(
        power=float(rng.uniform(0.2, 5)),
        backhaul_capacity=float(rng.uniform(0, 3)),
        max_rounds=2,
        model_d=model_d,
        model_s=model_s,
        channel_regime="stsc",
    )


def rand_policy(rng):
    return RatePolicy.constant(
        float(rng.uniform(0, 3)), float(rng.uniform(0, 2)), float(rng.uniform(0, 1))
    )


class TestDegenerateBoundaries:
    """All-point-mass channels make every probability 0 or 1 with known flips."""

    def test_layer1_two_slot_boundary(self):
        # d = s = 1, cmax = 1, P = 1: a_d = 3*2/3 = 2, single-slot rate f
        cfg = pm_cfg(1.0, 1.0)
        a = conservative_gain(1.0, 1.0, 1.0, 1.0)
        assert a == pytest.approx(2.0, abs=1e-12)
        f = mutual_info(1.0, 0.0, a, 1.0, 1.0)
        assert f == pytest.approx(0.5 * np.log2(8.0 / 3.0), abs=1e-12)

        just_under = RatePolicy.constant(2 * f - 1e-6, 0.0, 1.0)
        t = throughput(cfg, just_under, quad_n=128).table
        assert t.p1_out[0] == 1.0  # misses the first slot alone
        assert t.p1_out[1] == 0.0  # two accumulated slots suffice
        assert t.p2_out[1] == 0.0
        assert t.p2_dec[1] == 1.0

        just_over = RatePolicy.constant(2 * f + 1e-6, 0.0, 1.0)
        t = throughput(cfg, just_over, quad_n=128).table
        assert t.p1_out[1] == 1.0
        assert t.p2_out[1] == 1.0
        assert t.p2_dec[1] == 0.0

    def test_layer2_wrap_after_slot2_layer1_decode(self):
        # layer 1 needs both slots; layer 2's fate rests on its two BC credits
        cfg = pm_cfg(1.0, 10.0)
        a = conservative_gain(1.0, 10.0, 1.0, 1.0)
        i1 = mutual_info(0.9, 0.1, a, 10.0, 1.0)
        i2 = mutual_info(0.1, 0.0, a, 10.0, 1.0)

        heavy = RatePolicy.constant(1.5 * i1, 10.0, 0.9)  # r2 beyond any credit
        t = throughput(cfg, heavy, quad_n=128).table
        assert t.p1_out[0] == 1.0 and t.p1_out[1] == 0.0
        assert t.p2_out[1] == 1.0 and t.p2_dec[1] == 0.0
        rep = throughput(cfg, heavy, quad_n=128)
        assert rep.expected_length == pytest.approx(2.0, abs=1e-12)
        assert rep.eta == pytest.approx(1.5 * i1 / 2.0, rel=1e-9)

        light = RatePolicy.constant(1.5 * i1, 1.5 * i2, 0.9)  # two credits suffice
        t = throughput(cfg, light, quad_n=128).table
        assert t.p1_out[1] == 0.0
        assert t.p2_out[1] == 0.0 and t.p2_dec[1] == 1.0
        rep = throughput(cfg, light, quad_n=128)
        assert rep.eta == pytest.approx((1.5 * i1 + 1.5 * i2) / 2.0, rel=1e-9)

    def test_single_layer_slot2_retry_for_layer2(self):
        # layer 1 done in slot 1; layer 2 gets a full-power second slot
        cfg = pm_cfg(1.0, 4.0)
        a = conservative_gain(1.0, 4.0, 1.0, 1.0)
        i1 = mutual_info(0.6, 0.4, a, 4.0, 1.0)
        i2 = mutual_info(0.4, 0.0, a, 4.0, 1.0)
        sl = mutual_info(1.0, 0.0, a, 4.0, 1.0)

        pol = RatePolicy.constant(0.9 * i1, i2 + 0.9 * sl, 0.6)
        t = throughput(cfg, pol, quad_n=128).table
        assert t.p1_out[0] == 0.0
        assert t.p2_out[0] == 1.0  # layer 2 short by i2 after slot 1
        assert t.p2_out[1] == 0.0  # the single-layer retry covers the rest
        assert t.p2_dec[1] == 1.0

        pol = RatePolicy.constant(0.9 * i1, i2 + 1.1 * sl, 0.6)
        assert throughput(cfg, pol, quad_n=128).table.p2_out[1] == 1.0

    def test_alpha_one_leaves_only_the_retry(self):
        # no layer-2 power in slot 1, so its only chance is the slot-2 retry
        cfg = pm_cfg(1.0, 1.0)
        f = mutual_info(1.0, 0.0, 2.0, 1.0, 1.0)

        pol = RatePolicy.constant(0.1, f - 1e-6, 1.0)
        t = throughput(cfg, pol, quad_n=128).table
        assert t.p1_out[0] == 0.0
        assert t.p2_out[0] == 1.0
        assert t.p2_out[1] == 0.0
        assert throughput(cfg, pol, quad_n=128).expected_length == 2.0

        pol = RatePolicy.constant(0.1, f + 1e-6, 1.0)
        assert throughput(cfg, pol, quad_n=128).table.p2_out[1] == 1.0


class TestReductions:
    def test_zero_r2_collapses_to_layer1(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            cfg = rand_cfg(rng)
            r1, alpha = float(rng.uniform(0, 3)), float(rng.uniform(0.1, 1))
            pol = RatePolicy.constant(r1, 0.0, alpha)
            t = throughput(cfg, pol, quad_n=64).table
            assert t.p2_out[0] == pytest.approx(t.p1_out[0], abs=1e-12)
            assert t.p2_out[1] == pytest.approx(t.p1_out[1], abs=1e-12)
            assert t.p2_dec[0] == pytest.approx(1 - t.p1_out[0], abs=1e-12)

    def test_zero_rates(self):
        cfg = rand_cfg(np.random.default_rng(3))
        rep = throughput(cfg, RatePolicy.constant(0.0, 0.0, 0.5), quad_n=32)
        assert rep.eta == 0.0
        assert rep.expected_length == 1.0
        assert rep.table.p2_dec[0] == 1.0


class TestTableInvariants:
    def test_bounds_monotonicity_and_total_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            cfg, pol = rand_cfg(rng), rand_policy(rng)
            t = throughput(cfg, pol, quad_n=64).table
            for arr in (t.p1_out, t.p2_out, t.p2_dec):
                assert np.all(arr >= -1e-12) and np.all(arr <= 1 + 1e-12)
            assert t.p1_out[1] <= t.p1_out[0] + 1e-12
            assert t.p2_out[1] <= t.p2_out[0] + 1e-12
            assert np.all(t.p2_out >= t.p1_out - 1e-12)
            assert t.total_probability_gap() < 1e-9

    def test_interference_variant_is_no_better(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            base = rand_cfg(rng)
            pol = RatePolicy.constant(
                float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.2, 0.9))
            )
            variant = SystemConfig(
                power=base.power,
                backhaul_capacity=base.backhaul_capacity,
                max_rounds=2,
                model_d=base.model_d,
                model_s=base.model_s,
                channel_regime="stsc",
                bc_layer2_interference=True,
            )
            worse = throughput(variant, pol, quad_n=48).table
            best = throughput(base, pol, quad_n=48).table
            assert worse.p2_out[1] >= best.p2_out[1] - 1e-12
            assert worse.p2_dec[0] <= best.p2_dec[0] + 1e-12

    def test_grid_refinement_stability(self):
        cfg = SystemConfig(
            power=2.0,
            backhaul_capacity=1.5,
            max_rounds=2,
            model_d=FadingModel("rayleigh", 2.0),
            model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        pol = RatePolicy.constant(1.2, 0.6, 0.8)
        coarse = throughput(cfg, pol, quad_n=32).table
        fine = throughput(cfg, pol, quad_n=256).table
        for a, b in zip((coarse.p1_out, coarse.p2_out, coarse.p2_dec),
                        (fine.p1_out, fine.p2_out, fine.p2_dec)):
            assert np.allclose(a, b, atol=0.02)


class TestVectorizedPath:
    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        cfg = rand_cfg(rng)
        r1s = np.array([0.4, 1.1, 2.0])
        r2s = np.array([0.2, 0.9])
        alpha = 0.7
        q = stsc_entries(cfg, r1s, r2s, alpha, n=48)
        for i, r1 in enumerate(r1s):
            for j, r2 in enumerate(r2s):
                t = throughput(cfg, RatePolicy.constant(r1, r2, alpha), quad_n=48).table
                assert q["p1_out_2"][i, j] == pytest.approx(t.p1_out[1], abs=1e-12)
                assert q["p2_dec_1"][i, j] == pytest.approx(t.p2_dec[0], abs=1e-12)
                assert q["p2_out_2"][i, j] == pytest.approx(t.p2_out[1], abs=1e-12)


SIDES = optimize._Stsc.sides  # the passes as defined, whatever a test patches on the class


def entries(tables):
    """The four STSC table entries, each (rows, q2), of `side_quantities`' tables."""
    p1_out, p2_out, p2_dec = (t[:, :, 0] for t in tables)
    return {"p1_out_1": p1_out[..., 0], "p1_out_2": p1_out[..., 1],
            "p2_dec_1": p2_dec[..., 0], "p2_out_2": p2_out[..., 1]}


def stsc_tables(cfg, r1, r2, alpha, n):
    """(p1_out, p2_out, p2_dec) of every (r1, r2) pair at alpha on the n-point
    quadrature, each (q1, q2, 1, 2): `side_quantities` of each pass of
    `_Stsc.sides`, in row order, one pass's r1 side at a time."""
    ev = optimize._Stsc(cfg, CompressionPolicy("constant"), "analytic", n)
    r2, parts = np.atleast_1d(np.asarray(r2, dtype=float)), []
    for (_, _, side), _ in SIDES(ev, r1, alpha):
        parts.append(side_quantities(cfg, side, r2, alpha, ev.grid))
        del side
    return tuple(np.concatenate(part) for part in zip(*parts))


def stsc_entries(cfg, r1, r2, alpha, n):
    """The four STSC table entries of `stsc_tables`."""
    return entries(stsc_tables(cfg, r1, r2, alpha, n))


def whole_block(ev, r1v, r2v, alpha):
    """The optimizer's block over every row: `_Evaluator.block` on all rows of
    each pass of `_Evaluator.sides`, concatenated in row order, and the
    evaluator's node weights."""
    parts = [ev.block(side, r2v, np.arange(len(side[0]))) for side, _ in ev.sides(r1v, alpha)]
    return (*(np.concatenate([part[i] for part in parts]) for i in (0, 1)), ev.weights)


def count_passes(monkeypatch, *modules):
    """The r1 row count of each pass's r1 side, formed through any of modules."""
    rows, one_side = [], stsc.r1_side

    def counting_side(cfg, r1, *args):
        rows.append(len(r1))
        return one_side(cfg, r1, *args)

    for module in modules:
        monkeypatch.setattr(module, "r1_side", counting_side)
    return rows


class TestSlot1Grid:
    """The per-scenario slot-1 grid is built once per evaluator."""

    def test_optimize_quantizes_once_per_evaluator(self, monkeypatch):
        kinds, quantize = [], stsc.quantize

        def counting_quantize(model, n):
            kinds.append(model.kind)
            return quantize(model, n)

        for module in (ltsc, stsc):  # D on the node grid, S in slot1_grid
            monkeypatch.setattr(module, "quantize", counting_quantize)
        passes = count_passes(monkeypatch, stsc, optimize)
        cfg = SystemConfig(power=2.0, backhaul_capacity=1.5, max_rounds=2,
                           model_d=FadingModel("rician", 2.0, rician_k=1.0),
                           model_s=FadingModel("rayleigh", 1.0), channel_regime="stsc")
        ev = _Evaluator(cfg, CompressionPolicy("constant"), "analytic", 12)
        _optimize(ev, ["sl", "bc"], GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.25,
                                             refine_rounds=2))
        assert len(passes) > 5
        assert kinds == ["rician", "rayleigh"]  # D, then S

    @pytest.mark.parametrize("seed", [23, 29, 31])
    def test_block_is_the_quantities_reward_over_length(self, seed):
        cfg = rand_cfg(np.random.default_rng(seed))
        ev = _Evaluator(cfg, CompressionPolicy("constant"), "analytic", 16)
        r1, r2 = np.linspace(0.0, 2.5, 7), np.linspace(0.0, 1.5, 5)
        for alpha in (0.0, 0.6, 1.0):
            p1, p2o, _ = (t[:, :, 0] for t in stsc_tables(cfg, r1, r2, alpha, n=16))
            reward, length = reward_length(r1[:, None], r2[None, :], p1, p2o)
            reward_b, length_b, weights = whole_block(ev, r1, r2, alpha)
            assert np.array_equal((reward_b @ weights) / (length_b @ weights), reward / length)


def dense_cdf_sum(model, c, w, u):
    """G(u) = sum_j w_j F(u - c_j), one node at a time in the order of sorted c."""
    g = np.zeros(u.shape)
    for j in np.argsort(c, kind="stable"):
        g = g + w[j] * model.cdf_strict(u - c[j])
    return g


def g_points(c, rng, size=400):
    """Random u around the nodes, every node itself, +-inf and NaN."""
    span = np.ptp(c) + 1.0
    return np.concatenate([rng.uniform(c.min() - span, c.max() + span, size), c,
                           [np.inf, -np.inf, np.nan, -1e300, 1e300]])


G_CASES = {
    "spread": lambda rng: (np.sort(rng.uniform(0.0, 4.0, 32)), rng.dirichlet(np.ones(32))),
    "tied": lambda rng: (np.repeat([0.0, 0.3, 1.2, 2.5], [1, 3, 4, 2]), np.full(10, 0.1)),
    "cmax-0": lambda rng: (np.zeros(16), np.full(16, 1 / 16)),
    "one-node": lambda rng: (np.array([0.7]), np.array([1.0])),
    "unsorted": lambda rng: (rng.uniform(0.0, 4.0, 9), np.full(9, 1 / 9)),
}


class TestNodeCdfSum:
    """The closed forms of G against the plain sum over the nodes."""

    @pytest.mark.parametrize("case", sorted(G_CASES))
    @pytest.mark.parametrize("rho", [0.3, 1.0, 25.0])
    def test_rayleigh_closed_form(self, case, rho):
        rng = np.random.default_rng(3)
        c, w = G_CASES[case](rng)
        model = FadingModel("rayleigh", rho)
        u = g_points(c, rng)
        np.testing.assert_allclose(node_cdf_sum(model, c, w)(u), dense_cdf_sum(model, c, w, u),
                                   rtol=0, atol=1e-15)

    def test_rayleigh_no_overflow_far_from_the_nodes(self):
        # c / rho reaches 2000, where a naive exp(c / rho) overflows
        c, w = np.linspace(0.0, 20.0, 64), np.full(64, 1 / 64)
        model = FadingModel("rayleigh", 0.01)
        u = g_points(c, np.random.default_rng(4))
        with np.errstate(over="raise"):
            got = node_cdf_sum(model, c, w)(u)
        np.testing.assert_allclose(got, dense_cdf_sum(model, c, w, u), rtol=0, atol=1e-15)

    def test_rayleigh_keeps_precision_at_a_heavy_node(self):
        # at u = c_j only the lighter nodes below count; a form that folded
        # node j in would cancel its weight against itself
        c, w = np.arange(6.0), 1e-6 ** np.arange(5.0, -1.0, -1.0)
        model = FadingModel("rayleigh", 0.5)
        u = np.concatenate([c, c + 0.25])
        np.testing.assert_allclose(node_cdf_sum(model, c, w)(u), dense_cdf_sum(model, c, w, u),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", sorted(G_CASES))
    @pytest.mark.parametrize("value", [0.0, 1.3])
    def test_pointmass_prefix_weight_is_exact(self, case, value, monkeypatch):
        rng = np.random.default_rng(5)
        c, w = G_CASES[case](rng)
        model = FadingModel("pointmass", point_value=value)
        u = np.concatenate([g_points(c, rng), c + value, np.nextafter(c + value, np.inf)])
        for g_cells in (1, 1_000_000):
            monkeypatch.setattr(stsc, "G_CELLS", g_cells)
            got = node_cdf_sum(model, c, w)(u)
            assert np.array_equal(got, dense_cdf_sum(model, c, w, u), equal_nan=True)
            assert np.isnan(got[np.isnan(u)]).all()

    @pytest.mark.parametrize("case", sorted(G_CASES))
    def test_rician_sum_in_chunks(self, case, monkeypatch):
        rng = np.random.default_rng(6)
        c, w = G_CASES[case](rng)
        model = FadingModel("rician", 1.5, rician_k=2.0)
        u = g_points(c, rng, size=100)
        want = dense_cdf_sum(model, c, w, u)
        for g_cells in (1, 50, 1_000_000):
            monkeypatch.setattr(stsc, "G_CELLS", g_cells)
            np.testing.assert_allclose(node_cdf_sum(model, c, w)(u), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", sorted(G_CASES))
    @pytest.mark.parametrize("model", [FadingModel("rician", 1.5, rician_k=2.0),
                                       FadingModel("rayleigh", 1.5)], ids=["rician", "rayleigh"])
    def test_node_sum_skips_only_exact_zeros(self, case, model):
        # the summed form evaluates the cdf only where u - c_j > 0 or is NaN;
        # elsewhere it is exactly 0, so G is the dense sum over all nodes bit for
        # bit.  Rayleigh S takes this form when some c_j is infinite.
        rng = np.random.default_rng(7)
        c, w = G_CASES[case](rng)
        u = g_points(c, rng, size=100)
        if model.kind == "rayleigh":
            c, w = np.append(c, np.inf), np.append(w, 0.5)
        order = np.argsort(c, kind="stable")
        with np.errstate(invalid="ignore"):  # inf - inf
            want = model.cdf_strict(u[:, None] - c[order]) @ w[order]
            got = node_cdf_sum(model, c, w)(u)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[np.isnan(u)]).all()


RICIAN_S = FadingModel("rician", 1.5, rician_k=2.0)


def serial_rician_cdf_sum(model, c, w, u, rows):
    """G on this thread alone: one chndtr call over each chunk of `rows` u."""
    order = np.argsort(c, kind="stable")
    c, w = c[order], w[order]
    scale, nc = model.mean_power / (2.0 * (model.rician_k + 1.0)), 2.0 * model.rician_k
    out = np.empty(len(u))
    for i in range(0, len(u), rows):
        x = u[i : i + rows, None] - c
        cdf = special.chndtr(np.maximum(x, 0.0) / scale, 2.0, nc)
        out[i : i + rows] = np.where(x <= 0, 0.0, cdf) @ w
    return out


class TestCdfSumOnTwoThreads:
    """G's chunks are Rician cdf calls, which `fading` runs in slabs on the
    calling thread and one pool thread (`_rician_cdf` through `_on_threads`)."""

    N, CHUNK_ROWS = 64, 2040  # a chunk of 2040 * 64 pairs is 16 slabs of 8160

    def test_from_outer_threads_at_once(self, monkeypatch):
        # three callers on two cores share the pool, with frequent thread switches
        monkeypatch.setattr(stsc, "G_CELLS", self.N * 2 * self.CHUNK_ROWS)
        rng = np.random.default_rng(12)
        c, w = np.sort(rng.uniform(0.0, 4.0, self.N)), rng.dirichlet(np.ones(self.N))
        u = rng.uniform(-2.0, 8.0, 3 * self.CHUNK_ROWS + 200)  # the tail is one slab
        u[:5] = u[-5:] = [np.nan, np.inf, -np.inf, 0.0, c[3]]
        want = serial_rician_cdf_sum(RICIAN_S, c, w, u, self.CHUNK_ROWS)
        G = node_cdf_sum(RICIAN_S, c, w)
        submits, pool_sizes, cdf_threads, got = [], [], [], []
        submit, rician_cdf, chndtr = fading._POOL.submit, fading._rician_cdf, special.chndtr

        def counting_submit(*args, **kwargs):
            submits.append(args[0])
            return submit(*args, **kwargs)

        def recording_rician_cdf(xp, scale, nc):
            cdf_threads.append(threading.current_thread())
            return rician_cdf(xp, scale, nc)

        def recording_chndtr(x, *args, **kwargs):
            if threading.current_thread() not in threads:
                pool_sizes.append(x.size)
            return chndtr(x, *args, **kwargs)

        monkeypatch.setattr(fading._POOL, "submit", counting_submit)
        monkeypatch.setattr(fading, "_rician_cdf", recording_rician_cdf)
        monkeypatch.setattr(special, "chndtr", recording_chndtr)
        start = threading.Barrier(3)

        def work():
            start.wait()
            got.extend(G(u) for _ in range(3))

        threads = [threading.Thread(target=work) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 9
        assert all(np.array_equal(result, want, equal_nan=True) for result in got)
        assert len(submits) == 9 * 3  # one per chunk of two or more slabs
        assert len(cdf_threads) == 9 * 4 and set(cdf_threads) <= set(threads)
        assert pool_sizes and max(pool_sizes) <= SPLIT_POINTS // 2  # a pool thread never splits a cdf


FIRST_G = """
import sys
import numpy as np
from relharq import fading
from relharq.fading import FadingModel
from relharq.stsc import node_cdf_sum

submit, loaded_at_submit = fading._POOL.submit, []

def recording_submit(*args, **kwargs):
    loaded_at_submit.append("scipy.special" in sys.modules)
    return submit(*args, **kwargs)

fading._POOL.submit = recording_submit
rng = np.random.default_rng(3)
c, w, u = np.sort(rng.uniform(0.0, 2.0, 160)), np.full(160, 1 / 160), rng.uniform(-1.0, 6.0, 1000)
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
got = node_cdf_sum(FadingModel("rician", 1.5, rician_k=2.0), c, w)(u)  # 20 slabs of 8,000 pairs
from scipy import special
x = u[:, None] - c
want = np.where(x <= 0, 0.0, special.chndtr(np.maximum(x, 0.0) / 0.25, 2.0, 4.0)) @ w
print(np.array_equal(got, want), loaded_at_submit)
"""


def test_first_rician_cdf_sum_imports_scipy_special_before_the_submit():
    # the first Rician G, before any cdf, loads scipy.special on the calling
    # thread, so the pool thread never imports it
    src = os.path.dirname(os.path.dirname(stsc.__file__))
    proc = subprocess.run([sys.executable, "-c", FIRST_G], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines() == ["[]", "True [True]"]


@pytest.mark.parametrize("s_kind", ["rayleigh", "rician"])
def test_row_blocks_change_no_bit(s_kind, monkeypatch):
    # the (r1, r2, d1, s1) masses in one block, or one r1 row per block
    cfg = rand_cfg(np.random.default_rng(17))
    cfg = SystemConfig(cfg.power, cfg.backhaul_capacity, 2, cfg.model_d,
                       FadingModel(s_kind, 1.5, rician_k=1.0), channel_regime="stsc")
    r1, r2 = np.linspace(0.0, 2.5, 9), np.linspace(0.0, 1.5, 7)
    whole = stsc_entries(cfg, r1, r2, 0.7, n=24)
    monkeypatch.setattr(stsc, "BLOCK_CELLS", 1)
    rows = stsc_entries(cfg, r1, r2, 0.7, n=24)
    for key in whole:
        assert np.array_equal(rows[key], whole[key]), key


def test_r1_chunks_keep_the_cell_budget_and_every_bit(monkeypatch):
    cfg = SystemConfig(
        power=2.0, backhaul_capacity=1.5, max_rounds=2,
        model_d=FadingModel("rayleigh", 2.0), model_s=FadingModel("rayleigh", 1.0),
        channel_regime="stsc",
    )
    r = np.linspace(0.0, 3.0, 13)
    whole = stsc_entries(cfg, r, r, 0.6, n=16)
    monkeypatch.setattr(stsc, "R1_CELLS", 5 * 16**2 + 1)
    rows = count_passes(monkeypatch, optimize)
    passes = stsc_entries(cfg, r, r, 0.6, n=16)
    for key in whole:
        assert np.array_equal(passes[key], whole[key]), key
    assert rows == [5, 5, 3]


@pytest.mark.parametrize("n", [9, 16, 32])
@pytest.mark.parametrize("seed", range(4))
def test_kept_rows_keep_every_bit(n, seed, monkeypatch):
    # rows picked at random from each pass's r1 side; the kept rows' entries
    # are the full block's, with r1 passes of 3 rows and gamma blocks of 2
    # rows, so both boundaries fall inside the kept rows
    rng = np.random.default_rng(seed)
    cfg = rand_cfg(rng)
    r1, r2 = np.sort(rng.uniform(0.0, 3.0, 11)), rng.uniform(0.0, 2.0, 6)
    monkeypatch.setattr(stsc, "R1_CELLS", 3 * n * n + 1)
    monkeypatch.setattr(stsc, "BLOCK_CELLS", 2 * len(r2) * n * n + 1)
    grid = stsc.slot1_grid(cfg, n)
    for alpha in (0.0, 0.55, 1.0):
        full = stsc_entries(cfg, r1, r2, alpha, n)
        mask = rng.random(len(r1)) < (0.5, 0.2, 1.0)[seed % 3]
        mask[3:6] = seed % 2 == 0  # one pass all kept or all left out
        seen, got = [], []
        for rows in stsc.r1_passes(r1, n):
            side = stsc.r1_side(cfg, rows, alpha, grid)
            seen.append((rows, side.p1_out[:, 1]))
            kept = np.flatnonzero(mask[np.searchsorted(r1, rows)])
            if len(kept):
                got.append(entries(stsc.side_quantities(cfg, side, r2, alpha, grid, kept)))
        assert [len(rows) for rows, _ in seen] == [3, 3, 3, 2]
        for key in full:
            kept = [part[key] for part in got] or [np.empty((0, len(r2)))]
            assert np.array_equal(np.concatenate(kept), full[key][mask]), key
        # each pass's rows and their p1_out_2 are the full block's
        assert np.array_equal(np.concatenate([rows for rows, _ in seen]), r1)
        assert np.array_equal(np.concatenate([p for _, p in seen]), full["p1_out_2"][:, 0])


class TestMemory:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_design_block_peak_is_bounded(self, alpha):
        # one optimizer block at the figure-6 point (25x25 r-grid, quad.n 32);
        # the dense gamma tensor peaked at 180 MB here
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=5.0, max_rounds=2,
            model_d=FadingModel("rician", 10.0), model_s=FadingModel("rayleigh", 10.0),
            channel_regime="stsc",
        )
        r = np.linspace(0.0, 6.0, 25)
        tracemalloc.start()
        try:
            stsc_entries(cfg, r, r, alpha, n=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96e6

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_fine_design_block_peak_is_bounded(self, alpha):
        # one 61x61 block at quad.n 128; the (q2, n, n) arrays still span the
        # whole r2 axis.  106 MB at alpha = 1 when G took its support in one piece
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=5.0, max_rounds=2,
            model_d=FadingModel("rician", 10.0), model_s=FadingModel("rayleigh", 10.0),
            channel_regime="stsc",
        )
        r = np.linspace(0.0, 6.0, 61)
        tracemalloc.start()
        try:
            stsc_entries(cfg, r, r, alpha, n=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96e6

    def test_scan_holds_one_r1_side_at_a_time(self, monkeypatch):
        # r1 passes of 2 rows: each pass's r1 side is freed before the next is formed
        monkeypatch.setattr(stsc, "R1_CELLS", 2 * 8 * 8 + 1)
        made, one_side = [], stsc.r1_side

        def tracking(*args):
            assert all(ref() is None for ref in made)
            side = one_side(*args)
            made.append(weakref.ref(side))
            return side

        monkeypatch.setattr(optimize, "r1_side", tracking)
        cfg = rand_cfg(np.random.default_rng(3))
        _optimize(_Evaluator(cfg, CompressionPolicy("constant"), "analytic", 8), ["sl", "bc"],
                  GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.5, refine_rounds=1))
        assert len(made) > 3 * 5

    @staticmethod
    def rician_tuple_peak(rho_d, n):
        """Traced peak of one STSC tuple with Rician D and S at quadrature size n."""
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.5, max_rounds=2,
            model_d=FadingModel("rician", rho_d, rician_k=2.0),
            model_s=FadingModel("rician", 1.0, rician_k=1.0), channel_regime="stsc",
        )
        cfg.model_s.cdf(1.0)  # untraced first: importing scipy.special is not part of the peak
        tracemalloc.start()
        try:
            stsc_entries(cfg, [0.9], [0.5], 0.95, n=n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fine_rician_tuple_peak_is_bounded(self):
        # one tuple at n = 256: the generic G holds one chunk of G_CELLS / 2
        # (cell, node) differences; 10.6 MB, against 26.5 MB when the cdf took
        # the chunk's live pairs out of place and 689 MB when the residual cdfs
        # were dense (q, rows, n, n) tensors
        assert self.rician_tuple_peak(4.0, 256) < 14e6

    def test_point_fine_rician_tuple_peak_is_bounded(self):
        # the point-fine benchmark's STSC tuple at P = 0 dB, n = 160: 7.3 MB,
        # against 23.2 MB with the out-of-place cdf in G and clip in the bins
        assert self.rician_tuple_peak(10**0.6, 160) < 12e6


class TestPreconditions:
    def test_wrong_regime_rejected(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        with pytest.raises(ValueError, match="stsc"):
            stsc_entries(cfg, [1.0], [0.5], 0.8, n=128)

    def test_wrong_horizon_rejected(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        with pytest.raises(ValueError, match="T=2"):
            throughput(cfg, RatePolicy.constant(1.0, 0.5, 0.8), quad_n=128)

    def test_per_node_policy_rejected(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        pol = RatePolicy.per_node(np.full(4, 1.0), np.full(4, 0.5), np.full(4, 0.8))
        with pytest.raises(ValueError, match="single-tuple"):
            throughput(cfg, pol, quad_n=128)
