import sys
import tracemalloc

import numpy as np
import pytest

import relharq.simulate as sim
from relharq import fading
from relharq.channel import CompressionPolicy, RatePolicy, SystemConfig, mutual_info
from relharq.fading import FadingModel, quantize
from relharq.optimize import throughput
from relharq.simulate import EstimateReport, estimate, simulate_session
from relharq.tables import NumericalError, reward_length

CONST = CompressionPolicy("constant")
ADAPT = CompressionPolicy("adaptive")


def pm_cfg(d, s, T=2, cmax=1.0, P=1.0, regime="ltsc"):
    return SystemConfig(
        power=P, backhaul_capacity=cmax, max_rounds=T,
        model_d=FadingModel("pointmass", point_value=d),
        model_s=FadingModel("pointmass", point_value=s),
        channel_regime=regime,
    )


class TestSessionOutcomes:
    def test_both_layers_first_slot(self):
        cfg = pm_cfg(1.0, 1.0)
        i1 = mutual_info(0.6, 0.4, 2.0, 1.0, 1.0)
        i2 = mutual_info(0.4, 0.0, 2.0, 1.0, 1.0)
        pol = RatePolicy.constant(0.9 * i1, 0.9 * i2, 0.6)
        out = simulate_session(cfg, pol, CONST, np.random.default_rng(0))
        assert out.slot_m1_decoded == 1
        assert out.slot_m2_decoded == 1
        assert out.session_length == 1
        assert out.acc_mi_1[0] == pytest.approx(i1, abs=1e-12)
        assert out.acc_mi_2[0] == pytest.approx(i2, abs=1e-12)

    def test_unachievable_rate_runs_to_horizon(self):
        cfg = pm_cfg(1.0, 1.0, T=3)
        pol = RatePolicy.constant(5.0, 0.3, 0.0)  # no layer-1 power, R1 > 0
        out = simulate_session(cfg, pol, CONST, np.random.default_rng(1))
        assert out.slot_m1_decoded is None
        assert out.slot_m2_decoded is None
        assert out.session_length == 3

    def test_invariants_over_random_sessions(self):
        rng = np.random.default_rng(42)
        cfg = SystemConfig(
            power=1.5, backhaul_capacity=1.0, max_rounds=4,
            model_d=FadingModel("rician", 2.0, rician_k=3.0),
            model_s=FadingModel("rayleigh", 1.5),
        )
        for _ in range(200):
            pol = RatePolicy.constant(
                float(rng.uniform(0, 2.5)), float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1))
            )
            out = simulate_session(cfg, pol, CONST, rng)
            if out.slot_m2_decoded is not None:
                assert out.slot_m1_decoded is not None
                assert out.slot_m2_decoded >= out.slot_m1_decoded
                assert out.session_length == out.slot_m2_decoded
            else:
                assert out.session_length == cfg.max_rounds
            assert len(out.d) == out.session_length
            assert np.all(out.d == out.d[0]) and np.all(out.s == out.s[0])  # ltsc frozen
            assert np.all(np.diff(out.acc_mi_1) >= -1e-12)
            assert np.all(np.diff(out.acc_mi_2) >= -1e-12)

    def test_stsc_redraws_gains(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=4,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        pol = RatePolicy.constant(50.0, 1.0, 0.5)  # force full-length sessions
        out = simulate_session(cfg, pol, CONST, np.random.default_rng(2))
        assert out.session_length == 4
        assert len(np.unique(out.d)) == 4 and len(np.unique(out.s)) == 4


class TestEstimate:
    def test_pointmass_exact_probabilities(self):
        cfg = pm_cfg(1.0, 1.0)
        f = mutual_info(1.0, 0.0, 2.0, 1.0, 1.0)
        pol = RatePolicy.constant(2 * f - 1e-6, 0.0, 1.0)
        rep = estimate(cfg, pol, CONST, 500, master_seed=7)
        assert np.array_equal(rep.table.p1_out, [1.0, 0.0])
        assert np.array_equal(rep.table.p2_dec, [0.0, 1.0])
        assert np.all(rep.table.std_errors["p1_out"] == 0.0)
        assert rep.expected_length == 2.0
        assert rep.eta == pytest.approx((2 * f - 1e-6) / 2, rel=1e-12)

    def test_counting_and_length_identities(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("rayleigh", 2.0), model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(1.0, 0.5, 0.8)
        rep = estimate(cfg, pol, CONST, 40_000, master_seed=11)
        assert rep.table.total_probability_gap() < 1e-12
        er, el = reward_length(1.0, 0.5, rep.table.p1_out, rep.table.p2_out)
        assert rep.expected_reward == pytest.approx(er, abs=1e-12)
        assert rep.expected_length == pytest.approx(el, abs=1e-12)

    def test_matches_ltsc_analytics(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("rician", 1.5, rician_k=2.0),
            model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(1.2, 0.03, 0.97)  # abar*P = 0.03: approximation regime
        rep = estimate(cfg, pol, CONST, 200_000, master_seed=3)
        tab = throughput(cfg, pol, comp=CONST, quad_n=256).table
        se = rep.table.std_errors
        for k in range(3):
            assert abs(rep.table.p1_out[k] - tab.p1_out[k]) <= 4 * se["p1_out"][k] + 1e-9
            assert abs(rep.table.p2_out[k] - tab.p2_out[k]) <= 0.02 + 4 * se["p2_out"][k]
            assert abs(rep.table.p2_dec[k] - tab.p2_dec[k]) <= 0.02 + 4 * se["p2_dec"][k]
        rep_eta = throughput(cfg, pol, comp=CONST, quad_n=256)
        assert abs(rep.eta - rep_eta.eta) <= 0.02 + 4 * rep.eta_std_error

    def test_matches_stsc_analytics(self):
        for variant in (False, True):
            cfg = SystemConfig(
                power=2.0, backhaul_capacity=1.5, max_rounds=2,
                model_d=FadingModel("rayleigh", 1.5), model_s=FadingModel("rayleigh", 2.0),
                channel_regime="stsc", bc_layer2_interference=variant,
            )
            pol = RatePolicy.constant(1.4, 0.7, 0.75)
            rep = estimate(cfg, pol, CONST, 200_000, master_seed=5)
            tab = throughput(cfg, pol, quad_n=256).table
            se = rep.table.std_errors
            for k in range(2):
                assert abs(rep.table.p1_out[k] - tab.p1_out[k]) <= 4 * se["p1_out"][k] + 2e-4
                assert abs(rep.table.p2_out[k] - tab.p2_out[k]) <= 4 * se["p2_out"][k] + 2e-4
                assert abs(rep.table.p2_dec[k] - tab.p2_dec[k]) <= 4 * se["p2_dec"][k] + 2e-4

    def test_se_scaling_with_n(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(1.0, 0.5, 0.8)
        r1 = estimate(cfg, pol, CONST, 20_000, master_seed=1)
        r2 = estimate(cfg, pol, CONST, 80_000, master_seed=1)
        ratio = r2.table.std_errors["p1_out"][1] / r1.table.std_errors["p1_out"][1]
        assert ratio == pytest.approx(0.5, rel=0.2)
        assert r2.eta_std_error / r1.eta_std_error == pytest.approx(0.5, rel=0.2)


class TestAdaptive:
    def test_inferred_bound_holds_on_every_adaptation(self):
        # d = 1, P = 1, Cmax = 1, alpha = 1, R1 = 1 decoding at k=1 implies s >= 2.4
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("pointmass", point_value=1.0),
            model_s=FadingModel("rayleigh", 4.0),
        )
        pol = RatePolicy.constant(1.0, 3.0, 1.0)
        rng = np.random.default_rng(9)
        seen = 0
        for _ in range(300):
            out = simulate_session(cfg, pol, ADAPT, rng)
            if out.adaptation_slot == 1:
                seen += 1
                assert out.s_hat == pytest.approx(2.4, abs=1e-9)
                assert out.s[0] >= 2.4 - 1e-9
        assert seen > 10

    def test_estimate_runs_clean_and_matches_analytics(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=3,
            model_d=FadingModel("rician", 1.5, rician_k=1.0),
            model_s=FadingModel("rayleigh", 2.0),
        )
        pol = RatePolicy.constant(1.0, 0.4, 0.96)  # r2 big enough to need SL slots
        rep = estimate(cfg, pol, ADAPT, 150_000, master_seed=13)
        assert rep.feasibility_violations == 0
        assert rep.adaptation_count > 0
        tab = throughput(cfg, pol, comp=ADAPT, quad_n=256).table
        se = rep.table.std_errors
        for k in range(3):
            assert abs(rep.table.p2_out[k] - tab.p2_out[k]) <= 0.02 + 4 * se["p2_out"][k]

    def test_adaptive_needs_ltsc(self):
        cfg = pm_cfg(1.0, 1.0, regime="stsc")
        with pytest.raises(ValueError, match="ltsc"):
            estimate(cfg, RatePolicy.constant(1.0, 0.5, 0.9), ADAPT, 10, master_seed=0)


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rician", 1.0, rician_k=2.0),
            channel_regime="stsc",
        )
        pol = RatePolicy.constant(1.1, 0.6, 0.7)
        submits, submit = [], fading._POOL.submit

        def counting_submit(*args, **kwargs):
            submits.append(args[0])
            return submit(*args, **kwargs)

        monkeypatch.setattr(fading._POOL, "submit", counting_submit)
        reps = []
        for w in (1, 2, 5, 64):  # 8 batches: 64 workers start 7 pool tasks
            submits.clear()
            reps.append(estimate(cfg, pol, CONST, 30_000, master_seed=21, batch_size=4096,
                                 workers=w))
            assert len(submits) == min(w, 8) - 1
        for rep in reps[1:]:
            assert rep.eta == reps[0].eta
            assert np.array_equal(rep.table.p1_out, reps[0].table.p1_out)
            assert np.array_equal(rep.table.p2_dec, reps[0].table.p2_dec)
            assert rep.eta_std_error == reps[0].eta_std_error

    def test_repeat_run_identical(self):
        cfg = pm_cfg(1.0, 1.0, regime="ltsc")
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(0.9, 0.4, 0.8)
        a = estimate(cfg, pol, CONST, 15_000, master_seed=33)
        b = estimate(cfg, pol, CONST, 15_000, master_seed=33)
        assert a.eta == b.eta and np.array_equal(a.table.p2_out, b.table.p2_out)

    def test_batches_draw_the_spawned_seeds(self):
        # a serial reference: batch b steps on the b-th child of spawn(n), and
        # the counters are summed in batch order
        cfg = SystemConfig(power=1.0, backhaul_capacity=1.5, max_rounds=3,
                           model_d=FadingModel("rician", 4.0, rician_k=2.0),
                           model_s=FadingModel("rayleigh", 1.0))
        pol = RatePolicy.constant(0.9, 0.5, 0.95)
        sizes = [3000, 3000, 3000, 1000]
        seqs = np.random.SeedSequence(17).spawn(len(sizes))
        runs = [sim._run_batch(cfg, pol, ADAPT, np.random.default_rng(seq), size)
                for seq, size in zip(seqs, sizes)]
        c1, c2 = sum(r["c1"] for r in runs), sum(r["c2"] for r in runs)
        sum_R, sum_L = sum(r["sum_R"] for r in runs), sum(r["sum_L"] for r in runs)
        for workers in (1, 3):
            rep = estimate(cfg, pol, ADAPT, 10_000, master_seed=17, batch_size=3000,
                           workers=workers)
            assert np.array_equal(rep.table.p1_out, (10_000 - np.cumsum(c1[1:])) / 10_000)
            assert np.array_equal(rep.table.p2_dec, c2[1:] / 10_000)
            assert rep.eta == sum_R / sum_L and rep.expected_reward == sum_R / 10_000
            assert rep.adaptation_count == sum(r["adaptations"] for r in runs) > 0

    def test_fold_under_frequent_thread_switches(self):
        # four threads on two cores fold 120 batches; a lost or reordered
        # update would change a count or a bit against one thread
        cfg = SystemConfig(power=1.0, backhaul_capacity=1.5, max_rounds=3,
                           model_d=FadingModel("rayleigh", 4.0), model_s=FadingModel("rayleigh", 1.0))
        pol = RatePolicy.constant(0.9, 0.5, 0.95)
        want = estimate(cfg, pol, ADAPT, 6_000, master_seed=8, batch_size=50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = [estimate(cfg, pol, ADAPT, 6_000, master_seed=8, batch_size=50, workers=4)
                   for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for rep in got:
            assert rep.eta == want.eta and rep.eta_std_error == want.eta_std_error
            assert np.array_equal(rep.table.p2_out, want.table.p2_out)
            assert rep.adaptation_count == want.adaptation_count

    def test_seed_changes_result(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        pol = RatePolicy.constant(0.9, 0.4, 0.8)
        a = estimate(cfg, pol, CONST, 15_000, master_seed=33)
        b = estimate(cfg, pol, CONST, 15_000, master_seed=34)
        assert a.eta != b.eta


class TestPolicyResolution:
    def test_uniform_per_node_policy_equals_constant(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        const = RatePolicy.constant(1.0, 0.5, 0.8)
        per_node = RatePolicy.per_node(np.full(5, 1.0), np.full(5, 0.5), np.full(5, 0.8))
        a = estimate(cfg, const, CONST, 10_000, master_seed=2)
        b = estimate(cfg, per_node, CONST, 10_000, master_seed=2)
        assert a.eta == b.eta
        assert np.array_equal(a.table.p2_out, b.table.p2_out)

    def test_bad_session_count(self):
        cfg = pm_cfg(1.0, 1.0)
        with pytest.raises(ValueError, match="n_sessions"):
            estimate(cfg, RatePolicy.constant(1, 0.5, 0.9), CONST, 0, master_seed=0)

    @pytest.mark.parametrize("knob, value", [("batch_size", 0), ("batch_size", -5),
                                             ("workers", 0), ("workers", -1)])
    def test_bad_batch_size_or_workers(self, knob, value):
        cfg = pm_cfg(1.0, 1.0)
        with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
            estimate(cfg, RatePolicy.constant(1, 0.5, 0.9), CONST, 100, master_seed=0,
                     **{knob: value})

    @pytest.mark.parametrize("knob, value", [("batch_size", (1 << 20) + 1), ("workers", 65)])
    def test_batch_size_or_workers_above_the_cap(self, knob, value):
        # refused before any workspace or thread exists
        cfg = pm_cfg(1.0, 1.0)
        with pytest.raises(ValueError, match=f"{knob} must be <= {value - 1}"):
            estimate(cfg, RatePolicy.constant(1, 0.5, 0.9), CONST, 100, master_seed=0,
                     **{knob: value})


class TestWorkspace:
    @pytest.mark.parametrize("regime, comp, bound", [("ltsc", CONST, 1), ("stsc", CONST, 1),
                                                     ("ltsc", ADAPT, 2)])
    def test_warmed_batch_allocates_no_per_slot_arrays(self, regime, comp, bound):
        # the mc benchmark's scenarios; what a batch allocates is an n-byte bool
        # temporary (about 0.14 n-length float64 rows) and the adaptive branch's
        # index of acknowledged sessions (about 0.8 more), where a stepper
        # allocating per slot peaks at 17-21 n-length float64 temporaries
        n = 1 << 16
        cfg = SystemConfig(power=1.0, backhaul_capacity=1.5, max_rounds=3,
                           model_d=FadingModel("rician", 4.0, rician_k=2.0),
                           model_s=FadingModel("rician", 1.0, rician_k=1.0), channel_regime=regime)
        pol = RatePolicy.constant(0.9, 0.5, 0.95)
        ws = sim._workspace(n)
        sim._run_batch(cfg, pol, comp, np.random.default_rng(0), n, ws=ws)
        tracemalloc.start()
        try:
            res = sim._run_batch(cfg, pol, comp, np.random.default_rng(1), n, ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n
        if comp.adaptive:
            assert res["adaptations"] > n // 4  # the adaptive branch ran at scale

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_does_not_grow_with_the_batch_count(self, monkeypatch, workers):
        # no per-batch state outlives its fold (seeds, tasks, counters).  The
        # stepper is replaced by copies of one batch's counters: its own
        # allocations are per batch (test_warmed_batch_allocates_no_per_slot_arrays),
        # and 20,000 real batches under tracemalloc would take about 25 s
        cfg = pm_cfg(1.0, 1.0)
        pol = RatePolicy.constant(0.9, 0.4, 0.8)
        counters = sim._run_batch(cfg, pol, CONST, np.random.default_rng(0), 16)

        def copied_counters(cfg, policy, comp, rng, n, ws=None, grid=None):
            return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in counters.items()}

        monkeypatch.setattr(sim, "_run_batch", copied_counters)
        peaks = []
        for batches in (2_000, 20_000):
            tracemalloc.start()
            try:
                rep = estimate(cfg, pol, CONST, 16 * batches, master_seed=5, batch_size=16,
                               workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.n_sessions == 16 * batches
        assert peaks[1] <= peaks[0] + 0.5 * 2**20

    def test_per_node_grid_is_built_once_per_estimate(self, monkeypatch):
        calls = []

        def counting(model, n):
            calls.append(n)
            return quantize(model, n)

        monkeypatch.setattr(sim, "quantize", counting)
        cfg = SystemConfig(power=1.0, backhaul_capacity=1.0, max_rounds=2,
                           model_d=FadingModel("rician", 2.0, rician_k=1.5),
                           model_s=FadingModel("rayleigh", 1.0))
        pol = RatePolicy.per_node([0.5, 0.8, 1.1], [0.6, 0.4, 0.3], [0.7, 0.85, 1.0])
        estimate(cfg, pol, CONST, 10_000, master_seed=2, batch_size=1000, workers=2)
        assert calls == [3]


# doubles whose bits a select or an add by +0.0 could get wrong
EDGE = np.array([np.nan, -np.nan, np.array(0x7FF8_0000_0000_0123).view(np.float64), np.inf,
                 -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, 0.25])


def _flags(rng, n):
    return {"random": rng.random(n) < 0.5, "all": np.ones(n, bool), "none": np.zeros(n, bool)}


class TestMaskHelpers:
    # the stepper's branch-free updates against the masked ufuncs they replace, bit for bit
    n = 997

    @pytest.mark.parametrize("kind", ["random", "all", "none"])
    def test_mask_is_all_ones_or_zero(self, kind):
        flag = _flags(np.random.default_rng(0), self.n)[kind]
        got = sim._mask(flag, np.empty(self.n, dtype=np.int64))
        assert np.array_equal(got, np.where(flag, -1, 0))

    @pytest.mark.parametrize("kind", ["random", "all", "none"])
    def test_masked_add_equals_add_where(self, kind):
        rng = np.random.default_rng(1)
        flag = _flags(rng, self.n)[kind]
        # an accumulator starts at +0.0 and takes sums, which never give -0.0
        acc = np.zeros(self.n)
        np.add(acc, rng.choice(EDGE, self.n), out=acc, where=rng.random(self.n) < 0.7)
        x = rng.choice(EDGE, self.n)
        want = acc.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
            np.add(want, x, out=want, where=flag)
            got = sim._masked_add(acc, x.copy(), sim._mask(flag, np.empty(self.n, np.int64)))
        assert got is acc
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["random", "all", "none"])
    @pytest.mark.parametrize("shapes", ["scalar-scalar", "array-scalar", "scalar-array",
                                        "array-array"])
    def test_pick_equals_where_and_copyto(self, kind, shapes):
        rng = np.random.default_rng(2)
        flag = _flags(rng, self.n)[kind]
        mask = sim._mask(flag, np.empty(self.n, np.int64))
        for trial in range(len(EDGE)):
            x, y = (rng.choice(EDGE, self.n) if side == "array" else EDGE[(trial + j) % len(EDGE)]
                    for j, side in enumerate(shapes.split("-")))
            got = sim._pick(x, y, mask, out=np.full(self.n, 3.0))
            want = np.where(flag, x, y)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            copied = np.empty(self.n)
            np.copyto(copied, y)
            np.copyto(copied, x, where=flag)
            assert np.array_equal(got.view(np.int64), copied.view(np.int64))


class TestNumericalFailure:
    @pytest.mark.parametrize("regime", ["ltsc", "stsc"])
    def test_nan_mutual_information_raises(self, regime):
        # 2^(2 Cmax) overflows at Cmax = 1e6, so the compression gain is inf and
        # the mutual information NaN, which a decode test would read as an outage
        cfg = SystemConfig(power=1.0, backhaul_capacity=1e6, max_rounds=2,
                           model_d=FadingModel("rayleigh", 1.0),
                           model_s=FadingModel("rayleigh", 1.0), channel_regime=regime)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericalError, match="mutual information"):
            estimate(cfg, RatePolicy.constant(1.0, 0.2, 0.9), CONST, 500, master_seed=0)
