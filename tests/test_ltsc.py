import tracemalloc

import numpy as np
import pytest

from relharq import ltsc, optimize
from relharq.channel import CompressionPolicy, RatePolicy, SystemConfig
from relharq.fading import FadingModel
from relharq.ltsc import node_grid, node_tables
from relharq.optimize import throughput

CONST = CompressionPolicy("constant")
ADAPT = CompressionPolicy("adaptive")


def pm_cfg(d, s, T=2, cmax=1.0, P=1.0):
    return SystemConfig(
        power=P,
        backhaul_capacity=cmax,
        max_rounds=T,
        model_d=FadingModel("pointmass", point_value=d),
        model_s=FadingModel("pointmass", point_value=s),
    )


def rand_cfg(rng, T=None):
    kinds = ["rayleigh", "rician", "pointmass"]
    kd = kinds[rng.integers(0, 3)]
    ks = kinds[rng.integers(0, 2)]  # S: rayleigh or rician
    if kd == "pointmass":
        model_d = FadingModel("pointmass", point_value=float(rng.uniform(0.1, 5)))
    else:
        model_d = FadingModel(kd, float(rng.uniform(0.2, 10)), rician_k=float(rng.uniform(0, 8)))
    model_s = FadingModel(ks, float(rng.uniform(0.2, 10)), rician_k=float(rng.uniform(0, 8)))
    return SystemConfig(
        power=float(rng.uniform(0.2, 5)),
        backhaul_capacity=float(rng.uniform(0, 3)),
        max_rounds=int(T or rng.integers(1, 5)),
        model_d=model_d,
        model_s=model_s,
    )


def rand_policy(rng):
    return RatePolicy.constant(
        float(rng.uniform(0, 3)), float(rng.uniform(0, 2)), float(rng.uniform(0, 1))
    )


class TestP1Out:
    def test_zero_rate(self):
        cfg = rand_cfg(np.random.default_rng(0))
        pol = RatePolicy.constant(0.0, 0.5, 0.7)
        for k in range(1, cfg.max_rounds + 1):
            assert throughput(cfg, pol, quad_n=256).table.p1_out[k - 1] == 0.0

    def test_degenerate_decode_boundary(self):
        # f_I(1,0,1.5,2.5,1) = 1.0178 >= 1 -> no outage; s=2.0 gives 0.9240 < 1
        pol = RatePolicy.constant(1.0, 0.0, 1.0)
        assert throughput(pm_cfg(1.0, 2.5), pol, quad_n=256).table.p1_out[0] == 0.0
        assert throughput(pm_cfg(1.0, 2.0), pol, quad_n=256).table.p1_out[0] == 1.0

    def test_k_dependence(self):
        # two slots accumulate: s=2.0 fails one slot but 2 slots carry 1.848 bits
        pol = RatePolicy.constant(1.0, 0.0, 1.0)
        cfg = pm_cfg(1.0, 2.0, T=2)
        assert throughput(cfg, pol, quad_n=256).table.p1_out[1] == 0.0


class TestP2:
    def test_zero_r2_collapses_to_p1(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = rand_cfg(rng)
            pol = RatePolicy.constant(float(rng.uniform(0, 3)), 0.0, float(rng.uniform(0, 1)))
            t = throughput(cfg, pol, quad_n=64).table
            assert np.allclose(t.p2_out, t.p1_out, atol=1e-12)

    def test_alpha_one_k1_is_certain_outage(self):
        cfg = pm_cfg(1.0, 10.0, T=2)
        pol = RatePolicy.constant(0.5, 0.1, 1.0)
        assert throughput(cfg, pol, quad_n=256).table.p2_out[0] == 1.0

    def test_deterministic_chain_example(self):
        # D=1, S=5, (1, 0.2, 0.9): layer 1 decodes in slot 1 (I1=1.0405) and
        # layer 2 immediately after (I2bc=0.3208 >= 0.2), so no outage anywhere
        cfg = pm_cfg(1.0, 5.0, T=2)
        pol = RatePolicy.constant(1.0, 0.2, 0.9)
        table = throughput(cfg, pol, quad_n=256).table
        assert table.p2_out[1] == 0.0
        assert table.p2_dec[0] == 1.0

    def test_both_layers_slot1(self):
        cfg = pm_cfg(1.0, 10.0, T=2)
        pol = RatePolicy.constant(0.5, 0.1, 0.9)
        assert throughput(cfg, pol, quad_n=256).table.p2_dec[0] == 1.0

    def test_huge_r1_never_decodes(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(100.0, 0.5, 0.9)
        t = throughput(cfg, pol, quad_n=128).table
        assert np.all(t.p2_dec < 1e-6)
        assert t.p2_out[-1] > 1 - 1e-6


class TestTableInvariants:
    @pytest.mark.parametrize("comp", [CONST, ADAPT])
    def test_random_configs(self, comp):
        rng = np.random.default_rng(42)
        for _ in range(120):
            cfg = rand_cfg(rng)
            pol = rand_policy(rng)
            t = throughput(cfg, pol, comp, quad_n=48).table
            for arr in (t.p1_out, t.p2_out, t.p2_dec):
                assert np.all(arr >= -1e-12) and np.all(arr <= 1 + 1e-12)
            assert np.all(np.diff(t.p1_out) <= 1e-12)
            assert np.all(np.diff(t.p2_out) <= 1e-12)
            assert np.all(t.p2_out >= t.p1_out - 1e-12)
            # exact by the cumulative-min interval construction
            assert t.total_probability_gap() < 1e-9
            # telescoping: p2_out(k) - p2_out(k+1) = p2_dec(k+1)
            if cfg.max_rounds > 1:
                assert np.allclose(-np.diff(t.p2_out), t.p2_dec[1:], atol=1e-9)


class TestThroughput:
    def test_zero_rates_end_at_slot_one(self):
        cfg = rand_cfg(np.random.default_rng(3))
        rep = throughput(cfg, RatePolicy.constant(0.0, 0.0, 0.5), quad_n=256)
        assert rep.eta == 0.0
        assert rep.expected_length == pytest.approx(1.0)

    def test_always_decode_slot_one(self):
        cfg = pm_cfg(1.0, 10.0, T=3)
        rep = throughput(cfg, RatePolicy.constant(0.5, 0.1, 0.9), quad_n=256)
        assert rep.expected_length == pytest.approx(1.0)
        assert rep.eta == pytest.approx(0.6)

    def test_eta_bounded_by_total_rate(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cfg = rand_cfg(rng)
            pol = rand_policy(rng)
            rep = throughput(cfg, pol, quad_n=48)
            assert 1.0 - 1e-9 <= rep.expected_length <= cfg.max_rounds + 1e-9
            assert rep.eta <= float(pol.r1 + pol.r2) + 1e-9
            assert rep.eta == pytest.approx(rep.expected_reward / rep.expected_length)

    def test_adaptive_never_hurts(self):
        # pointmass D, Rayleigh S: a_hat >= a pushes every SL threshold down
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = SystemConfig(
                power=float(rng.uniform(0.3, 3)),
                backhaul_capacity=float(rng.uniform(0.2, 3)),
                max_rounds=int(rng.integers(2, 5)),
                model_d=FadingModel("pointmass", point_value=float(rng.uniform(0.2, 4))),
                model_s=FadingModel("rayleigh", float(rng.uniform(0.3, 8))),
            )
            pol = rand_policy(rng)
            eta_c = throughput(cfg, pol, CONST, quad_n=64).eta
            eta_a = throughput(cfg, pol, ADAPT, quad_n=64).eta
            assert eta_a >= eta_c - 1e-12

    def test_monotone_in_cmax(self):
        pol = RatePolicy.constant(1.0, 0.4, 0.85)
        etas = []
        for cmax in (0.0, 0.5, 1.0, 2.0, 5.0):
            cfg = SystemConfig(
                power=1.0, backhaul_capacity=cmax, max_rounds=2,
                model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
            )
            etas.append(throughput(cfg, pol, quad_n=128).eta)
        assert np.all(np.diff(etas) >= -1e-12)

    @pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
    def test_one_node_tables_call_gives_table_and_eta(self, monkeypatch, comp):
        cfg = rand_cfg(np.random.default_rng(8), T=3)
        pol = RatePolicy.constant(0.9, 0.4, 0.9)
        grid = node_grid(cfg, 24)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:4])
            return node_tables(*args, **kwargs)

        monkeypatch.setattr(optimize, "node_tables", counting)
        rep = throughput(cfg, pol, comp, quad_n=24)
        assert len(calls) == 1
        # the same arrays the separate hooks give
        reward, length = ltsc.node_reward_length(cfg, 0.9, 0.4, 0.9, grid, comp)
        assert rep.expected_reward == float(reward @ grid.weights)
        assert rep.expected_length == float(length @ grid.weights)
        table = throughput(cfg, pol, comp, quad_n=24).table
        for name in ("p1_out", "p2_out", "p2_dec"):
            assert np.array_equal(getattr(rep.table, name), getattr(table, name))


def test_conservative_gain_runs_once_per_evaluator(monkeypatch):
    # a, b = 1 + a/d and the threshold offset c = a/b of each node are formed
    # once, in node_grid: at constant compression every block, tuple and
    # Dinkelbach iterate of an LTSC search reads them there
    cfg = rand_cfg(np.random.default_rng(30), T=3)
    gain, calls = ltsc.conservative_gain, []

    def counting(*args, **kwargs):
        calls.append(args)
        return gain(*args, **kwargs)

    monkeypatch.setattr(ltsc, "conservative_gain", counting)
    spec = optimize.GridSpec(r_max=3.0, r_step=0.5, alpha_step=0.25, refine_rounds=2)
    optimize.optima(cfg, optimize.CLASSES, CONST, grid_spec=spec, quad_n=12)
    assert len(calls) == 1
    throughput(cfg, RatePolicy.constant(0.9, 0.4, 0.9), quad_n=12)
    assert len(calls) == 2


def test_scan_block_peak_is_bounded():
    # one optimizer block, 61x61 tuples on 32 nodes at T = 6: only the running
    # threshold of one l is live, about 14 MB; keeping every (l, k) threshold
    # of the block would take about twice that
    cfg = SystemConfig(1.0, 1.0, 6, FadingModel("rician", 1.0), FadingModel("rayleigh", 1.0))
    grid = node_grid(cfg, 32)
    r = np.linspace(0.0, 6.0, 61)
    args = (cfg, r[:, None, None], r[None, :, None], np.float64(0.9), grid, CONST)
    ltsc.node_reward_length(*args)  # untraced first: lazily built caches are not part of the peak
    tracemalloc.start()
    try:
        ltsc.node_reward_length(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_scan_block_p1_is_not_block_sized():
    # the same block: p1 depends only on (r1, alpha, node), so it is built at that
    # shape and only viewed at the block shape; a block-sized p1 is 5.7 MB of a
    # 14.4 MB peak, without it the peak is about 8.7 MB
    cfg = SystemConfig(1.0, 1.0, 6, FadingModel("rician", 1.0), FadingModel("rayleigh", 1.0))
    r = np.linspace(0.0, 6.0, 61)
    args = (cfg, r[:, None, None], r[None, :, None], np.float64(0.9),
            node_grid(cfg, 32), CONST)
    p1, p2o = node_tables(*args)  # untraced first, as above
    assert not p1.flags.writeable and p1.shape == p2o.shape == (61, 61, 32, 6)
    tracemalloc.start()
    try:
        ltsc.node_reward_length(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


class TestLocalCsi:
    def test_single_node_matches_constant(self):
        cfg = pm_cfg(1.3, 0.0, T=2)
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("pointmass", point_value=1.3),
            model_s=FadingModel("rayleigh", 2.0),
        )
        const = throughput(cfg, RatePolicy.constant(1.0, 0.3, 0.8), quad_n=16)
        per_node = throughput(
            cfg, RatePolicy.per_node([1.0], [0.3], [0.8]), quad_n=16
        )
        assert per_node.eta == pytest.approx(const.eta, abs=1e-12)


def test_interference_variant_rejected_for_ltsc():
    cfg = SystemConfig(
        power=1.0, backhaul_capacity=1.0, max_rounds=2,
        model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        bc_layer2_interference=True,
    )
    with pytest.raises(ValueError):
        node_tables(cfg, 1.0, 0.3, 0.8, node_grid(cfg, 256))


def test_stsc_config_rejected():
    cfg = SystemConfig(
        power=1.0, backhaul_capacity=1.0, max_rounds=2,
        model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        channel_regime="stsc",
    )
    with pytest.raises(ValueError):
        node_tables(cfg, 1.0, 0.3, 0.8, node_grid(cfg, 256))


@pytest.mark.parametrize("seed", range(6))
def test_layer1_outage_is_the_tables_last_p1(seed):
    # the optimizer's row bound reads p1_out(T) = F(x_T) from the LTSC side,
    # without the rest of the tables
    rng = np.random.default_rng(seed)
    cfg = rand_cfg(rng)
    grid = node_grid(cfg, 12)
    r1 = np.linspace(0.0, 3.0, 7)[:, None]
    for alpha in (0.0, 0.4, 1.0):
        p1 = ltsc.layer1_side(cfg, r1, alpha, grid)[1][-1]
        for comp in (CONST, ADAPT):
            want, _ = node_tables(cfg, r1[:, :, None], np.array([0.0, 1.5])[:, None],
                                  np.float64(alpha), grid, comp)
            assert np.array_equal(np.broadcast_to(p1[:, None], want.shape[:-1]),
                                  want[..., -1])


@pytest.mark.parametrize("s_kind", ["rayleigh", "rician", "pointmass"])
@pytest.mark.parametrize("comp", [CONST, ADAPT], ids=["constant", "adaptive"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_side_rows_keep_every_bit(T, comp, s_kind):
    # random rows of an LTSC side give the whole block's tables at those rows,
    # bit for bit; an adaptive Rician S groups the rows by gain (_distinct_rows)
    rng = np.random.default_rng([T, comp.adaptive, len(s_kind)])
    model_s = (FadingModel("pointmass", point_value=float(rng.uniform(0.2, 3.0)))
               if s_kind == "pointmass" else
               FadingModel(s_kind, float(rng.uniform(0.2, 10)), rician_k=float(rng.uniform(0, 8))))
    cfg = SystemConfig(float(rng.uniform(0.2, 5)), float(rng.uniform(0.2, 3)), T,
                       FadingModel("rician", float(rng.uniform(0.2, 10)), rician_k=1.0), model_s)
    grid = node_grid(cfg, 9)
    r1 = np.sort(rng.uniform(0.0, 3.0, 13))[:, None, None]
    r2 = np.concatenate(([0.0], rng.uniform(0.0, 2.0, 4)))[None, :, None]
    for alpha in (0.0, 0.6, 1.0):
        side = ltsc.layer1_side(cfg, r1, alpha, grid)
        whole = node_tables(cfg, r1, r2, alpha, grid, comp)
        for _ in range(3):
            rows = np.flatnonzero(rng.random(len(r1)) < 0.5)
            x, Fx = side
            part = [v[rows] for v in x], [v[rows] for v in Fx]
            got = node_tables(cfg, r1[rows], r2, alpha, grid, comp, part)
            for g, w in zip(got, whole):
                assert np.array_equal(g, w[rows])
