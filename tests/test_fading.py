import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from relharq.fading import FadingModel, quantize

RAY1 = FadingModel("rayleigh", mean_power=1.0)


def test_rayleigh_cdf_frozen_values():
    assert RAY1.cdf(0.0) == 0.0
    # 1 - exp(-ln 2) = 0.5 exactly
    assert RAY1.cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
    assert RAY1.cdf(-1.0) == 0.0
    assert RAY1.cdf(np.inf) == 1.0
    assert RAY1.cdf(-np.inf) == 0.0


def test_pointmass_cdf_step_and_strict():
    pm = FadingModel("pointmass", point_value=2.0)
    assert pm.cdf(1.9) == 0.0
    assert pm.cdf(2.0) == 1.0
    # strict semantics: ties sit on the decoded side
    assert pm.cdf_strict(2.0) == 0.0
    assert pm.cdf_strict(2.0 + 1e-12) == 1.0
    assert pm.s_min == 2.0
    assert RAY1.s_min == 0.0


def test_rician_k0_equals_rayleigh():
    ric = FadingModel("rician", mean_power=1.3, rician_k=0.0)
    ray = FadingModel("rayleigh", mean_power=1.3)
    x = np.linspace(0.0, 12.0, 400)
    assert np.max(np.abs(ric.cdf(x) - ray.cdf(x))) < 1e-9


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        FadingModel("rayleigh", mean_power=0.0)
    with pytest.raises(ValueError):
        FadingModel("rician", mean_power=1.0, rician_k=-0.5)
    with pytest.raises(ValueError):
        FadingModel("pointmass", point_value=-1.0)
    with pytest.raises(ValueError):
        FadingModel("lognormal")


@pytest.mark.parametrize(
    "model",
    [
        RAY1,
        FadingModel("rician", mean_power=1.0, rician_k=10.0),
        FadingModel("rician", mean_power=2.5, rician_k=3.0),
    ],
)
def test_sampler_mean_power(model):
    rng = np.random.default_rng(1234)
    n = 10**6
    x = model.sample(rng, n)
    # variance of the power gain: Exp -> rho^2; Rician via ncx2 var
    if model.kind == "rayleigh":
        var = model.mean_power**2
    else:
        k = model.rician_k
        var = (model.mean_power / (2 * (k + 1))) ** 2 * (2 * (2 + 4 * k))
    assert abs(x.mean() - model.mean_power) < 3 * math.sqrt(var / n)


def test_pointmass_sampler_constant():
    rng = np.random.default_rng(0)
    x = FadingModel("pointmass", point_value=2.0).sample(rng, 100)
    assert np.all(x == 2.0)


@pytest.mark.parametrize(
    "model",
    [
        RAY1,
        FadingModel("rician", mean_power=1.0, rician_k=5.0),
    ],
)
def test_sampler_vs_inverse_cdf_ks(model):
    # two-sample KS between the sampler and inverse-CDF draws, 1% critical value
    rng = np.random.default_rng(777)
    n = 10**5
    a = model.sample(rng, n)
    b = model.ppf(rng.uniform(size=n))
    stat = stats.ks_2samp(a, b).statistic
    crit = 1.628 * math.sqrt(2.0 / n)
    assert stat < crit


@given(
    x1=st.floats(min_value=0.0, max_value=50.0),
    x2=st.floats(min_value=0.0, max_value=50.0),
    k=st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_cdf_monotone(x1, x2, k):
    model = FadingModel("rician", mean_power=1.0, rician_k=k)
    lo, hi = min(x1, x2), max(x1, x2)
    assert model.cdf(lo) <= model.cdf(hi) + 1e-12


def test_quantize_pointmass_single_node():
    grid = quantize(FadingModel("pointmass", point_value=1.5), 10)
    assert grid.nodes.tolist() == [1.5]
    assert grid.weights.tolist() == [1.0]


def test_quantize_rejects_zero():
    with pytest.raises(ValueError):
        quantize(RAY1, 0)


@pytest.mark.parametrize(
    "model",
    [
        RAY1,
        FadingModel("rician", mean_power=3.0, rician_k=4.0),
    ],
)
def test_quantize_mass_and_mean(model):
    grid = quantize(model, 200)
    assert abs(grid.weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.ones_like(grid.nodes) @ grid.weights == pytest.approx(1.0, abs=1e-12)
    mean = grid.nodes @ grid.weights
    assert abs(mean - model.mean_power) < 0.01 * model.mean_power


def test_quantize_convergence_envelope():
    # expectations of test functions converge as n doubles
    model = RAY1
    fns = [lambda d: d, lambda d: np.log1p(d), lambda d: 1.0 - np.exp(-2 * d)]
    exact = []
    ref = quantize(model, 1 << 15)
    for f in fns:
        exact.append(f(ref.nodes) @ ref.weights)
    for f, tgt in zip(fns, exact):
        errs = []
        for n in (128, 256, 512):
            g = quantize(model, n)
            errs.append(abs(f(g.nodes) @ g.weights - tgt))
        assert errs[2] <= errs[0] + 1e-12
        assert errs[2] <= errs[1] + 1e-12


def test_node_index_roundtrip():
    grid = quantize(RAY1, 64)
    idx = grid.node_index(grid.nodes)
    assert np.array_equal(idx, np.arange(64))
