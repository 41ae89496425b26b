import numpy as np
import pytest

from relharq.channel import CompressionPolicy, RatePolicy, SystemConfig, mutual_info
from relharq import ltsc
from relharq.fading import FadingModel, quantize
import relharq.optimize as opt
from relharq.optimize import GridSpec, optima, optimize_lcsit, optimize_no_lcsit, throughput
from relharq.tables import ConfigError

CONST = CompressionPolicy("constant")

SMALL = GridSpec(r_max=3.0, r_step=0.25, alpha_step=0.25, refine_rounds=2)


def ltsc_cfg(T=2, P=1.0, cmax=1.0, rho_d=1.5, rho_s=1.0, k=2.0):
    return SystemConfig(
        power=P, backhaul_capacity=cmax, max_rounds=T,
        model_d=FadingModel("rician", rho_d, rician_k=k),
        model_s=FadingModel("rayleigh", rho_s),
    )


class TestDegenerateOptimum:
    def test_no_uncertainty_reduces_to_single_layer_capacity(self):
        # PointMass D and S: layering cannot help, optimum is the slot-1 capacity
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("pointmass", point_value=1.0),
            model_s=FadingModel("pointmass", point_value=1.0),
        )
        f_sl = mutual_info(1.0, 0.0, 2.0, 1.0, 1.0)
        res = optimize_no_lcsit(cfg, CONST, grid_spec=SMALL, quad_n=8)
        assert res.eta <= f_sl + 1e-12
        assert res.eta >= f_sl - SMALL.r_step / 2**SMALL.refine_rounds
        assert float(res.policy.alpha) == 1.0
        assert float(res.policy.r2) == 0.0

    def test_no_information_path(self):
        # zero backhaul and zero direct gain: nothing can ever decode
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=0.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0),
            model_s=FadingModel("pointmass", point_value=0.0),
        )
        res = optimize_no_lcsit(cfg, CONST, grid_spec=SMALL, quad_n=8)
        assert res.eta == 0.0


class TestDominance:
    def test_policy_class_nesting_ltsc(self):
        for T, cmax in ((2, 1.0), (3, 2.0)):
            cfg = ltsc_cfg(T=T, cmax=cmax)
            got = optima(cfg, ("sl", "bc", "bc-lcsit", "sl-lcsit"), CONST, grid_spec=SMALL,
                         quad_n=24)
            sl, bc, lc, lsl = got.values()
            assert bc.eta >= sl.eta - 1e-12
            assert lc.eta >= bc.eta - 1e-12
            assert lsl.eta >= sl.eta - 1e-12
            assert lc.metadata["seed_eta"] == bc.eta
            assert float(sl.policy.r2) == 0.0 and float(sl.policy.alpha) == 1.0
            assert np.all(lsl.policy.r2 == 0.0) and np.all(lsl.policy.alpha == 1.0)

    def test_policy_class_nesting_stsc(self):
        cfg = SystemConfig(
            power=2.0, backhaul_capacity=1.5, max_rounds=2,
            model_d=FadingModel("rayleigh", 2.0), model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        sl, bc = optima(cfg, ("sl", "bc"), CONST, grid_spec=SMALL, quad_n=48).values()
        assert bc.eta >= sl.eta - 1e-12
        assert throughput(cfg, bc.policy, quad_n=48).eta == pytest.approx(bc.eta, abs=1e-9)


class TestReEvaluation:
    def test_no_lcsit_consistency(self):
        cfg = ltsc_cfg()
        res = optimize_no_lcsit(cfg, CONST, grid_spec=SMALL, quad_n=24)
        again = throughput(cfg, res.policy, CONST, quad_n=24)
        assert again.eta == pytest.approx(res.eta, abs=1e-9)

    def test_lcsit_consistency_and_trajectory(self):
        cfg = ltsc_cfg(T=3)
        res = optima(cfg, ["bc-lcsit"], CONST, grid_spec=SMALL, quad_n=24)["bc-lcsit"]
        again = throughput(cfg, res.policy, CONST, quad_n=24)
        assert again.eta == pytest.approx(res.eta, abs=1e-9)
        lam = res.metadata["lambda_trajectory"]
        assert all(b >= a - 1e-12 for a, b in zip(lam, lam[1:]))
        assert res.metadata["converged"]
        assert lam[0] == res.metadata["seed_eta"]

    def test_refinement_never_worsens(self):
        cfg = ltsc_cfg()
        rough = optimize_no_lcsit(
            cfg, CONST, grid_spec=GridSpec(3.0, 0.25, 0.25, refine_rounds=0), quad_n=24
        )
        fine = optimize_no_lcsit(cfg, CONST, grid_spec=SMALL, quad_n=24)
        assert fine.eta >= rough.eta - 1e-12


class TestCollapsedLcsit:
    def test_single_node_equals_no_lcsit_on_pointmass(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("pointmass", point_value=1.3),
            model_s=FadingModel("rayleigh", 2.0),
        )
        flat = optimize_no_lcsit(cfg, CONST, grid_spec=SMALL, quad_n=16)
        node = optimize_lcsit(cfg, CONST, grid_spec=SMALL, n_nodes=1, quad_n=16)
        assert node.eta == flat.eta
        assert float(node.policy.r1[0]) == float(flat.policy.r1)
        assert float(node.policy.alpha[0]) == float(flat.policy.alpha)


class TestMcBackend:
    def test_deterministic_and_dominant(self):
        cfg = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
        )
        spec = GridSpec(r_max=2.0, r_step=0.5, alpha_step=0.5, refine_rounds=1)
        mc = {"n_sessions": 4000, "master_seed": 17}
        a = optimize_no_lcsit(cfg, CONST, backend="mc", grid_spec=spec, mc=mc)
        b = optimize_no_lcsit(cfg, CONST, backend="mc", grid_spec=spec, mc=mc)
        assert a.eta == b.eta
        assert float(a.policy.r1) == float(b.policy.r1)
        sl = optima(cfg, ["sl"], CONST, backend="mc", grid_spec=spec, mc=mc)["sl"]
        assert a.eta >= sl.eta  # common random numbers + seeding make this exact


class TestValidation:
    def test_bad_grids(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(r_step=0.0)
        with pytest.raises(ValueError, match="refine"):
            GridSpec(refine_rounds=-1)

    def test_bad_backend(self):
        cfg = ltsc_cfg()
        with pytest.raises(ValueError, match="backend"):
            optimize_no_lcsit(cfg, CONST, backend="exact")

    def test_lcsit_restrictions(self):
        stsc = SystemConfig(
            power=1.0, backhaul_capacity=1.0, max_rounds=2,
            model_d=FadingModel("rayleigh", 1.0), model_s=FadingModel("rayleigh", 1.0),
            channel_regime="stsc",
        )
        with pytest.raises(ValueError, match="ltsc"):
            optima(stsc, ["bc-lcsit"], CONST, grid_spec=SMALL, quad_n=8)
        with pytest.raises(ValueError, match="analytic"):
            optima(ltsc_cfg(), ["bc-lcsit"], CONST, backend="mc", grid_spec=SMALL)

    @pytest.mark.parametrize("classes", [["lcsit"], ["sl", "BC"], "bc"],
                             ids=["unknown", "misspelt", "a-string"])
    def test_unknown_class(self, classes):
        with pytest.raises(ValueError, match="unknown policy class"):
            optima(ltsc_cfg(), classes, CONST, grid_spec=SMALL, quad_n=8)



def test_report_reads_a_per_node_policy_on_the_evaluator_grid(monkeypatch):
    cfg = ltsc_cfg(T=3)
    same = RatePolicy.per_node(np.linspace(0.5, 1.2, 8), np.full(8, 0.4), np.full(8, 0.9))
    other = RatePolicy.per_node(np.linspace(0.5, 1.2, 5), np.full(5, 0.4), np.full(5, 0.9))
    want = throughput(cfg, same, quad_n=8).eta
    ev = opt._Evaluator(cfg, CONST, "analytic", 8)
    calls = []

    def counting(model, n):
        calls.append(n)
        return quantize(model, n)

    monkeypatch.setattr(ltsc, "quantize", counting)
    assert ev.report(same).eta == want
    assert calls == []  # the evaluator's own grid, built with it
    ev.report(other)
    assert calls == [5]  # any other node count gets its own grid


def switch_cfg(regime, T=2, variant=False):
    return SystemConfig(power=1.0, backhaul_capacity=1.0, max_rounds=T,
                        model_d=FadingModel("rician", 1.5, rician_k=2.0),
                        model_s=FadingModel("rayleigh", 1.0), channel_regime=regime,
                        bc_layer2_interference=variant)


@pytest.mark.parametrize("regime, backend, cls", [
    ("ltsc", "analytic", opt._Ltsc), ("stsc", "analytic", opt._Stsc),
    ("ltsc", "mc", opt._MonteCarlo), ("stsc", "mc", opt._MonteCarlo)])
def test_evaluator_builds_the_class_of_its_regime_and_backend(regime, backend, cls):
    ev = opt._Evaluator(switch_cfg(regime), CONST, backend, 8)
    assert type(ev) is cls and ev.backend == backend
    assert ev.weights.shape == ((8,) if cls is opt._Ltsc else (1,))


@pytest.mark.parametrize("regime, comp, backend, T, variant, key", [
    ("stsc", CompressionPolicy("adaptive"), "analytic", 2, False, "compression"),
    ("ltsc", CONST, "analytic", 2, True, "bc_layer2_interference"),
    ("stsc", CONST, "analytic", 3, False, "T"),
    ("ltsc", CONST, "gpu", 2, False, "backend"),
], ids=["stsc-adaptive", "ltsc-interference", "stsc-T3", "unknown-backend"])
def test_unsupported_evaluator_is_refused_before_any_grid(regime, comp, backend, T, variant,
                                                          key, monkeypatch):
    built = []
    for name in ("node_grid", "slot1_grid"):
        monkeypatch.setattr(opt, name, lambda *args, name=name: built.append(name))
    with pytest.raises(ConfigError, match=f"^{key}:"):
        opt._Evaluator(switch_cfg(regime, T, variant), comp, backend, 8)
    assert built == []


@pytest.mark.parametrize("regime, backend", [("stsc", "analytic"), ("ltsc", "mc"),
                                             ("stsc", "mc")])
@pytest.mark.parametrize("cls", ["sl-lcsit", "bc-lcsit"])
def test_per_node_classes_need_the_ltsc_closed_form(regime, backend, cls):
    ev = opt._Evaluator(switch_cfg(regime), CONST, backend, 8)
    with pytest.raises(ConfigError, match="^csi:"):
        opt._optimize(ev, [cls], SMALL)
    assert ev.n_evals == 0
