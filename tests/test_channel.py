import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relharq.channel import (
    CompressionPolicy,
    RatePolicy,
    SystemConfig,
    _info,
    _split_gain,
    backhaul_usage,
    conservative_gain,
    infer_s_hat,
    mutual_info,
    slot_threshold,
    threshold_offset,
)
from relharq.config import GridSpec
from relharq.fading import FadingModel
from relharq.simulate import simulate_session


def make_cfg(**kw):
    base = dict(
        power=1.0,
        backhaul_capacity=1.0,
        max_rounds=2,
        model_d=FadingModel("rayleigh", 1.0),
        model_s=FadingModel("rayleigh", 1.0),
    )
    base.update(kw)
    return SystemConfig(**base)


class TestMutualInfo:
    def test_frozen_values(self):
        assert mutual_info(1, 0, 0, 0, 1) == 0.0
        assert mutual_info(1, 0, 1, 1, 1) == pytest.approx(0.5 * math.log2(2.5), abs=1e-12)
        assert mutual_info(1, 0, 0, 3, 1) == pytest.approx(1.0, abs=1e-12)
        # G = 2.4*2.5 + 1.5 = 7.5, ratio (2.5+7.5)/2.5 = 4 -> exactly 1 bit
        assert mutual_info(1, 0, 1.5, 2.4, 1) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mutual_info(1, 0, 1.0, 1.0, 0.0)
        # a = 0 ignores d entirely
        assert mutual_info(1, 0, 0.0, 3.0, 0.0) == pytest.approx(1.0)

    def test_nan_relay_gain_propagates(self):
        # a NaN d is no d = 1: wherever a > 0 the rate is NaN, and a = 0 ignores d
        assert math.isnan(mutual_info(1, 0, 1.0, 1.0, np.nan))
        assert math.isnan(_split_gain(1.0, np.nan))
        assert mutual_info(1, 0, 0.0, 3.0, np.nan) == pytest.approx(1.0)

    @given(
        P=st.floats(0.01, 50),
        Pb=st.floats(0, 50),
        a=st.floats(0, 50),
        s=st.floats(0, 50),
        d=st.floats(0.01, 50),
        eps=st.floats(0.001, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicities(self, P, Pb, a, s, d, eps):
        base = mutual_info(P, Pb, a, s, d)
        assert base >= 0
        assert mutual_info(P + eps, Pb, a, s, d) >= base - 1e-12
        assert mutual_info(P, Pb + eps, a, s, d) <= base + 1e-12
        assert mutual_info(P, Pb, a + eps, s, d) >= base - 1e-12
        assert mutual_info(P, Pb, a, s + eps, d) >= base - 1e-12

    @given(
        P=st.floats(0.01, 50),
        alpha=st.floats(0, 1),
        a=st.floats(0, 50),
        s=st.floats(0, 50),
        d=st.floats(0.01, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_chain_rule_identity(self, P, alpha, a, s, d):
        # layered SIC splits the single-layer rate exactly
        lhs = mutual_info(alpha * P, (1 - alpha) * P, a, s, d) + mutual_info(
            (1 - alpha) * P, 0.0, a, s, d
        )
        rhs = mutual_info(P, 0.0, a, s, d)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBackhaul:
    def test_frozen_values(self):
        assert backhaul_usage(0.0, 1.0, 0.0, 1.0) == 0.0
        assert backhaul_usage(1.5, 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert backhaul_usage(1.5, 1.0, 10.0, 1.0) < 1.0

    def test_conservative_gain_frozen(self):
        assert conservative_gain(1.0, 0.0, 1.0, 0.0) == 0.0
        assert conservative_gain(1.0, 0.0, 1.0, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_adaptive_gain_frozen(self):
        # the adaptive gain is the conservative one at the inferred bound s_hat:
        # beta=3, (1+2.4)/(1+(1+2.4)) = 3.4/4.4
        assert conservative_gain(1.0, 2.4, 1.0, 1.0) == pytest.approx(3 * 3.4 / 4.4, abs=1e-12)

    def test_gain_domain_error(self):
        # a dead relay link forwards nothing; a negative gain is no gain at all
        assert conservative_gain(0.0, 0.0, 1.0, 1.0) == 0.0
        with pytest.warns(RuntimeWarning):
            assert conservative_gain(0.0, 2.0, 1.0, 1e3) == 0.0
        assert np.array_equal(conservative_gain(np.array([0.0, 1.0]), 0.0, 1.0, 1.0),
                              [0.0, conservative_gain(1.0, 0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            conservative_gain(-1e-9, 0.0, 1.0, 1.0)

    def test_gain_of_a_nan_relay_gain_is_nan(self):
        # a NaN d neither hides a dead link's a = 0 nor a negative d
        got = conservative_gain(np.array([0.0, np.nan, 1.0]), 0.0, 1.0, 1.0)
        assert np.array_equal(got, [0.0, np.nan, conservative_gain(1.0, 0.0, 1.0, 1.0)],
                              equal_nan=True)
        with pytest.raises(ValueError):
            conservative_gain(np.array([np.nan, -1.0]), 0.0, 1.0, 1.0)

    @given(
        d=st.floats(1e-3, 1e3),
        P=st.floats(1e-3, 1e3),
        c=st.floats(0.0, 8.0),
        s_min=st.floats(0.0, 10.0),
        ds=st.floats(0.0, 100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_saturation_and_recoverability(self, d, P, c, s_min, ds):
        a = conservative_gain(d, s_min, P, c)
        assert backhaul_usage(a, d, s_min, P) == pytest.approx(c, abs=1e-9)
        # any s >= s_min needs no more bits than C_max
        assert backhaul_usage(a, d, s_min + ds, P) <= c + 1e-12


class TestSHat:
    def test_worked_example(self):
        s_hat = infer_s_hat(1.0, 1, 1.0, threshold_offset(1.5, 1.0), 1.0, 0.0)
        assert s_hat == pytest.approx(2.4, abs=1e-12)
        assert mutual_info(1.0, 0.0, 1.5, s_hat, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate(self):
        assert infer_s_hat(0.0, 1, 0.5, threshold_offset(1.5, 1.0), 1.0, 0.7) == 0.7

    def test_unreachable_sentinel(self):
        # alpha = 0 and R1 > 0: layer 1 has no power
        assert infer_s_hat(1.0, 1, 0.0, threshold_offset(1.5, 1.0), 1.0, 0.0) == np.inf

    @given(
        R1=st.floats(0.01, 6.0),
        k=st.integers(1, 4),
        alpha=st.floats(0.05, 1.0),
        d=st.floats(0.05, 50.0),
        c=st.floats(0.0, 4.0),
        P=st.floats(0.05, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_verification_identity(self, R1, k, alpha, d, c, P):
        a = conservative_gain(d, 0.0, P, c)
        s_hat = infer_s_hat(R1, k, alpha, threshold_offset(a, d), P, 0.0)
        if math.isinf(s_hat):
            return
        got = k * mutual_info(alpha * P, (1 - alpha) * P, a, s_hat, d)
        assert got >= R1 - 1e-7
        if s_hat > 0:
            # attained with equality when the threshold branch is active
            assert got == pytest.approx(R1, rel=1e-6, abs=1e-7)


def test_exp2_of_one_value_is_the_array_loop_double():
    # for a single tuple, slot_threshold and infer_s_hat form 2^(2R/l) once, on
    # one value, where an lcsit policy takes numpy's array loop: the Monte Carlo
    # stepper is bit-identical across the two only if they give the same double
    x = np.random.default_rng(0).uniform(-5.0, 50.0, 200_000)
    one_by_one = np.array([np.exp2(v) for v in x])
    assert np.count_nonzero(one_by_one != np.exp2(x)) == 0


def _kernel_cases(n=4099):
    """name -> (call(out, work), the kernel's formula as one numpy expression)."""
    rng = np.random.default_rng(5)
    P, c_max, s_min = 1.3, 0.8, 0.2
    d = rng.exponential(1.5, n)
    d[:5] = 0.0  # a dead relay link
    s = rng.exponential(1.0, n)
    s[5:7] = np.inf, np.nan
    beta = np.exp2(2.0 * c_max) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        def gain(s_min):
            return np.where(d > 0, beta * (1.0 + s_min * P) / (1.0 / d + (1.0 + s_min / d) * P), 0.0)

        a = gain(s_min)
        a[7] = np.nan
        b = 1.0 + np.where(a > 0, a / np.where(d > 0, d, 1.0), 0.0)
        c = threshold_offset(a, d)
        g = s * b + a
        p, p_bar = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
        r = rng.uniform(-0.5, 2.0, n)

        def threshold(R, l, p_sig, p_int):
            z = np.exp2(2.0 * np.maximum(R, 0.0) / l)
            den = p_sig - (z - 1.0) * p_int
            thr = np.where((den <= 0) | np.isposinf(z), np.inf, (z - 1.0) / den - a / b)
            return np.where(R <= 0, -np.inf, thr)

        return {
            "split_gain": (lambda o, w: _split_gain(a, d, out=o), b),
            "info": (lambda o, w: _info(0.4, 0.9, b, g, out=o, work=w),
                     0.5 * np.log2(1.0 + 0.4 * g / (b + 0.9 * g))),
            # powers per session, handed in the out and work buffers themselves
            "info-aliased": (lambda o, w: _info(_fill(o, p), _fill(w, p_bar), b, g, out=o, work=w),
                             0.5 * np.log2(1.0 + p * g / (b + p_bar * g))),
            "backhaul_usage": (
                lambda o, w: backhaul_usage(a, d, s, P, out=o, work=w),
                0.5 * np.log2(1.0 + a * (np.where(a > 0, 1.0 / d, 0.0) + P / (1.0 + P * s)))),
            "backhaul_usage-aliased": (
                lambda o, w: backhaul_usage(a, d, _fill(w, s), P, out=o, work=w),
                0.5 * np.log2(1.0 + a * (np.where(a > 0, 1.0 / d, 0.0) + P / (1.0 + P * s)))),
            "conservative_gain": (lambda o, w: conservative_gain(d, s_min, P, c_max, out=o, work=w),
                                  gain(s_min)),
            "conservative_gain-per-session": (
                lambda o, w: conservative_gain(d, s, P, c_max, out=o, work=w), gain(s)),
            "threshold_offset": (lambda o, w: threshold_offset(a, d, out=o), a / b),
            "slot_threshold": (lambda o, w: slot_threshold(0.9, 2, 1.1, 0.2, c, out=o),
                               threshold(np.float64(0.9), 2, 1.1, 0.2)),
            "infer_s_hat": (lambda o, w: infer_s_hat(r, 2, 0.8, c, P, 0.1, out=o),
                            np.maximum(threshold(r, 2, 0.8 * P, (1.0 - 0.8) * P), 0.1)),
        }


def _fill(buf, values):
    np.copyto(buf, values)
    return buf


@pytest.mark.parametrize("kernel", ["split_gain", "info", "info-aliased", "backhaul_usage",
                                    "backhaul_usage-aliased", "conservative_gain",
                                    "conservative_gain-per-session", "threshold_offset",
                                    "slot_threshold", "infer_s_hat"])
def test_kernel_into_buffers_equals_its_formula(kernel):
    # with and without out/work, the same elementwise operations in the same
    # order as the one-expression formula; the buffers start dirty
    call, want = _kernel_cases()[kernel]
    out, work = np.full(want.shape, np.nan), np.full(want.shape, np.nan)
    with np.errstate(all="ignore"):  # the inf and NaN inputs warn as the formula does
        got = call(out, work)
        assert got is out
        assert np.array_equal(got, want, equal_nan=True)
        if "aliased" not in kernel:
            assert np.array_equal(call(None, None), want, equal_nan=True)


class TestSlotThreshold:
    def test_nan_relay_gain_propagates(self):
        # no d = 1 in its place; the sentinels, which hold at any d, stay
        assert math.isnan(slot_threshold(1.0, 1, 4.0, 0.0, threshold_offset(1.0, np.nan)))
        assert slot_threshold(0.0, 1, 4.0, 0.0, threshold_offset(1.0, np.nan)) == -np.inf
        assert slot_threshold(1.0, 1, 0.0, 1.0, threshold_offset(1.0, np.nan)) == np.inf

    def test_sentinels(self):
        assert slot_threshold(0.0, 1, 1.0, 0.0, threshold_offset(1.0, 1.0)) == -np.inf
        assert slot_threshold(1.0, 1, 0.0, 1.0, threshold_offset(1.0, 1.0)) == np.inf
        # z = 4, den = 1, a/b: a=0 -> threshold 3.0
        assert slot_threshold(1.0, 1, 1.0, 0.0, threshold_offset(0.0, 1.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("p_int", [0.0, 0.5])
    def test_overflowed_rate_is_an_outage(self, p_int):
        # 2^(2R/l) overflows past R = 512 l; against p_int = 0, inf * 0 is NaN
        assert slot_threshold(600.0, 1, 1.0, p_int, threshold_offset(1.0, 1.0)) == np.inf
        assert np.isfinite(slot_threshold(600.0, 2, 1.0, 0.0, threshold_offset(1.0, 1.0)))
        thr = slot_threshold(np.array([0.0, 0.5, 600.0]), 1, 1.0, p_int,
                             threshold_offset(1.0, 1.0))
        assert thr[0] == -np.inf and np.isfinite(thr[1]) and thr[2] == np.inf

    @given(
        R=st.floats(0.01, 6.0),
        l=st.integers(1, 4),
        ps=st.floats(0.01, 20.0),
        pi=st.floats(0.0, 20.0),
        a=st.floats(0.0, 20.0),
        d=st.floats(0.05, 20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_threshold_is_decode_boundary(self, R, l, ps, pi, a, d):
        thr = slot_threshold(R, l, ps, pi, threshold_offset(a, d))
        if math.isinf(thr):
            if thr > 0:
                # even a huge s cannot decode
                assert l * mutual_info(ps, pi, a, 1e9, d) < R + 1e-9
            return
        s = max(thr, 0.0)
        assert l * mutual_info(ps, pi, a, s + 1e-6, d) >= R - 1e-7
        if thr > 0:
            assert l * mutual_info(ps, pi, a, thr - min(1e-6, thr / 2), d) <= R + 1e-7


class TestLayerMi:
    """The per-slot MI each layer accumulates in the simulator's session stepper."""

    @staticmethod
    def first_slots(alpha, variant=False):
        # D = 1, S = 1 frozen; r2 is out of reach, so both slots are recorded
        cfg = make_cfg(model_d=FadingModel("pointmass", point_value=1.0),
                       model_s=FadingModel("pointmass", point_value=1.0),
                       bc_layer2_interference=variant)
        out = simulate_session(cfg, RatePolicy.constant(0.1, 50.0, alpha), CompressionPolicy(),
                               np.random.default_rng(0))
        return out, conservative_gain(1.0, 1.0, 1.0, 1.0)

    def test_branches(self):
        out, a = self.first_slots(0.8)
        assert out.acc_mi_1[0] == pytest.approx(mutual_info(0.8, 0.2, a, 1.0, 1.0))
        assert out.acc_mi_2[0] == pytest.approx(mutual_info(0.2, 0.0, a, 1.0, 1.0))
        # layer 1 decoded in slot 1, so slot 2 is single-layer at full power
        assert out.acc_mi_2[1] - out.acc_mi_2[0] == pytest.approx(
            mutual_info(1.0, 0.0, a, 1.0, 1.0))

    def test_alpha_one_degenerates(self):
        out, _ = self.first_slots(1.0)
        assert out.acc_mi_2[0] == 0.0
        assert out.acc_mi_1[0] == out.acc_mi_2[1]

    def test_interference_variant(self):
        out, a = self.first_slots(0.8, variant=True)
        assert out.acc_mi_2[0] == pytest.approx(mutual_info(0.2, 0.8, a, 1.0, 1.0))

    def test_sl_layer1_rejected(self):
        # a single-layer slot carries no layer-1 MI
        out, _ = self.first_slots(0.8)
        assert out.slot_m1_decoded == 1
        assert out.acc_mi_1[1] == out.acc_mi_1[0]


class TestConfigTypes:
    def test_systemconfig_validation(self):
        with pytest.raises(ValueError):
            make_cfg(power=0.0)
        with pytest.raises(ValueError):
            make_cfg(max_rounds=0)
        with pytest.raises(ValueError):
            make_cfg(backhaul_capacity=-1.0)
        with pytest.raises(ValueError):
            make_cfg(channel_regime="fast")
        assert make_cfg(model_s=FadingModel("pointmass", point_value=0.3)).s_min == 0.3

    def test_rate_policy_validation(self):
        with pytest.raises(ValueError):
            RatePolicy.constant(-0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            RatePolicy.constant(1.0, 0.0, 1.5)
        p = RatePolicy.per_node([1.0, 2.0], [0.1, 0.2], [0.5, 0.9])
        assert p.r1.shape == (2,)

    @pytest.mark.parametrize("build", [
        lambda: RatePolicy.constant(0.5, 0.5, math.nan),
        lambda: RatePolicy.constant(math.nan, 0.5, 0.9),
        lambda: RatePolicy.constant(0.5, math.nan, 0.9),
        lambda: RatePolicy.constant(math.inf, 0.5, 0.9),
        lambda: RatePolicy.per_node([0.5, math.nan], [0.1, 0.1], [0.9, 0.9]),
        lambda: RatePolicy.per_node([0.5, 0.6], [0.1, 0.1], [0.9, math.nan]),
        lambda: FadingModel("rician", 1.0, math.nan),
        lambda: FadingModel("rayleigh", math.nan),
        lambda: FadingModel("pointmass", point_value=math.nan),
        lambda: make_cfg(backhaul_capacity=math.nan),
        lambda: make_cfg(power=math.nan),
        lambda: GridSpec(r_max=math.nan),
        lambda: GridSpec(r_max=math.inf),
        lambda: GridSpec(r_step=math.nan),
        lambda: GridSpec(alpha_step=math.nan),
    ], ids=["alpha-nan", "r1-nan", "r2-nan", "r1-inf", "per-node-r1-nan",
            "per-node-alpha-nan", "rician-k-nan", "mean-power-nan", "point-value-nan",
            "cmax-nan", "power-nan", "r-max-nan", "r-max-inf", "r-step-nan",
            "alpha-step-nan"])
    def test_non_finite_values_fail_the_checks(self, build):
        # each check is written so that NaN fails it
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: make_cfg(power=math.inf), "power"),
        (lambda: make_cfg(backhaul_capacity=math.inf), "backhaul_capacity"),
        (lambda: FadingModel("rician", 1.0, rician_k=math.inf), "rician_k"),
        (lambda: FadingModel("rician", math.inf, rician_k=1.0), "mean_power"),
        (lambda: FadingModel("rayleigh", math.inf), "mean_power"),
        (lambda: FadingModel("pointmass", point_value=math.inf), "point_value"),
    ], ids=["power-inf", "cmax-inf", "rician-k-inf", "rician-mean-power-inf",
            "rayleigh-mean-power-inf", "point-value-inf"])
    def test_infinite_physical_parameters_are_refused(self, build, field):
        # the config grammar refuses each; accepted here, an infinite power, Cmax
        # or K gave eta = nan, and an infinite gain is no fading model
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build()

    @pytest.mark.parametrize("r1, r2, alpha", [
        ([1.0, 1.2], [0.5], [0.9, 0.9]),              # lengths differ
        ([1.0], [0.5, 0.4], [0.9]),
        ([1.0, 1.2], [0.5, 0.4], 0.9),                # a scalar among node tables
        ([[1.0, 1.2]], [[0.5, 0.4]], [[0.9, 0.9]]),   # 2-D
        ([], [], []),                                 # no node
    ], ids=["r2-short", "r2-long", "scalar-alpha", "2-d", "empty"])
    def test_per_node_policy_takes_aligned_node_tables(self, r1, r2, alpha):
        with pytest.raises(ValueError, match="lcsit"):
            RatePolicy.per_node(r1, r2, alpha)

    def test_compression_policy(self):
        assert not CompressionPolicy("constant").adaptive
        assert CompressionPolicy("adaptive").adaptive
        with pytest.raises(ValueError):
            CompressionPolicy("other")
