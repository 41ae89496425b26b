import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relharq.channel import (
    CompressionPolicy,
    RatePolicy,
    SystemConfig,
    adaptive_gain,
    backhaul_usage,
    conservative_gain,
    infer_s_hat,
    layer_mi,
    mutual_info,
    slot_threshold,
)
from relharq.fading import FadingModel


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
        # beta=3, (1+2.4)/(1+(1+2.4)) = 3.4/4.4
        assert adaptive_gain(1.0, 2.4, 1.0, 1.0) == pytest.approx(3 * 3.4 / 4.4, abs=1e-12)
        assert adaptive_gain(2.0, 0.0, 1.0, 1.0) == conservative_gain(2.0, 0.0, 1.0, 1.0)

    def test_gain_domain_error(self):
        with pytest.raises(ValueError):
            conservative_gain(0.0, 0.0, 1.0, 1.0)

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
        s_hat = infer_s_hat(1.0, 1, 1.0, 1.0, 1.5, 1.0, 0.0)
        assert s_hat == pytest.approx(2.4, abs=1e-12)
        assert mutual_info(1.0, 0.0, 1.5, s_hat, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate(self):
        assert infer_s_hat(0.0, 1, 0.5, 1.0, 1.5, 1.0, 0.7) == 0.7

    def test_unreachable_sentinel(self):
        # alpha = 0 and R1 > 0: layer 1 has no power
        assert infer_s_hat(1.0, 1, 0.0, 1.0, 1.5, 1.0, 0.0) == np.inf

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
        s_hat = infer_s_hat(R1, k, alpha, d, a, P, 0.0)
        if math.isinf(s_hat):
            return
        got = k * mutual_info(alpha * P, (1 - alpha) * P, a, s_hat, d)
        assert got >= R1 - 1e-7
        if s_hat > 0:
            # attained with equality when the threshold branch is active
            assert got == pytest.approx(R1, rel=1e-6, abs=1e-7)


class TestSlotThreshold:
    def test_sentinels(self):
        assert slot_threshold(0.0, 1, 1.0, 0.0, 1.0, 1.0) == -np.inf
        assert slot_threshold(1.0, 1, 0.0, 1.0, 1.0, 1.0) == np.inf
        # z = 4, den = 1, a/b: a=0 -> threshold 3.0
        assert slot_threshold(1.0, 1, 1.0, 0.0, 0.0, 1.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("p_int", [0.0, 0.5])
    def test_overflowed_rate_is_an_outage(self, p_int):
        # 2^(2R/l) overflows past R = 512 l; against p_int = 0, inf * 0 is NaN
        assert slot_threshold(600.0, 1, 1.0, p_int, 1.0, 1.0) == np.inf
        assert np.isfinite(slot_threshold(600.0, 2, 1.0, 0.0, 1.0, 1.0))
        thr = slot_threshold(np.array([0.0, 0.5, 600.0]), 1, 1.0, p_int, 1.0, 1.0)
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
        thr = slot_threshold(R, l, ps, pi, a, d)
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
    def test_branches(self):
        cfg = make_cfg()
        tup = (1.0, 0.5, 0.8)
        assert layer_mi("bc", 1, cfg, 1.5, 1.0, 1.0, tup) == pytest.approx(
            mutual_info(0.8, 0.2, 1.5, 1.0, 1.0)
        )
        assert layer_mi("bc", 2, cfg, 1.5, 1.0, 1.0, tup) == pytest.approx(
            mutual_info(0.2, 0.0, 1.5, 1.0, 1.0)
        )
        assert layer_mi("sl", 2, cfg, 1.5, 1.0, 1.0, tup) == pytest.approx(
            mutual_info(1.0, 0.0, 1.5, 1.0, 1.0)
        )

    def test_alpha_one_degenerates(self):
        cfg = make_cfg()
        tup = (1.0, 0.5, 1.0)
        assert layer_mi("bc", 2, cfg, 1.5, 1.0, 1.0, tup) == 0.0
        assert layer_mi("bc", 1, cfg, 1.5, 1.0, 1.0, tup) == layer_mi(
            "sl", 2, cfg, 1.5, 1.0, 1.0, tup
        )

    def test_interference_variant(self):
        cfg = make_cfg(bc_layer2_interference=True)
        tup = (1.0, 0.5, 0.8)
        assert layer_mi("bc", 2, cfg, 1.5, 1.0, 1.0, tup) == pytest.approx(
            mutual_info(0.2, 0.8, 1.5, 1.0, 1.0)
        )

    def test_sl_layer1_rejected(self):
        with pytest.raises(ValueError):
            layer_mi("sl", 1, make_cfg(), 1.0, 1.0, 1.0, (1.0, 0.5, 0.8))


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

    def test_compression_policy(self):
        assert not CompressionPolicy("constant").adaptive
        assert CompressionPolicy("adaptive").adaptive
        with pytest.raises(ValueError):
            CompressionPolicy("other")
