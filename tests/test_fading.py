import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from relharq import fading
from relharq.fading import SPLIT_POINTS, FadingModel, quantize

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


# k = 0 runs the central chi2 kernels, every other k the noncentral ones
RICIAN_KS = [0.0, 0.5, 1.0, 2.0, 7.5]


@pytest.mark.parametrize("k", RICIAN_KS)
def test_rician_cdf_matches_scipy_ncx2_bit_for_bit(k):
    model = FadingModel("rician", mean_power=3.0, rician_k=k)
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.exponential(3.0, 20_000), rng.uniform(-5.0, 0.0, 100),
                        [0.0, -0.0, -1e-300, 5e-324, 1e300, np.inf, -np.inf, np.nan]])
    scale = model.mean_power / (2.0 * (k + 1.0))
    want = np.where(x < 0, 0.0, stats.ncx2.cdf(np.maximum(x, 0.0) / scale, df=2, nc=2.0 * k))
    assert np.isnan(want[-1])
    assert np.array_equal(model.cdf(x), want, equal_nan=True)
    assert model.cdf(np.inf) == 1.0 and model.cdf(-np.inf) == 0.0 and model.cdf(-2.0) == 0.0


@pytest.mark.parametrize("k", RICIAN_KS)
def test_rician_ppf_matches_scipy_ncx2_bit_for_bit(k):
    model = FadingModel("rician", mean_power=3.0, rician_k=k)
    scale = model.mean_power / (2.0 * (k + 1.0))
    # the probabilities and edges quantize asks for, then ncx2.ppf's edge cases
    qs = [0.0, 1.0, -0.1, 1.1, np.nan]
    for n in (1, 2, 10, 64, 160, 256, 724):
        qs += [np.minimum((np.arange(n) + 0.5) / n, fading._TAIL_Q), np.arange(1, n) / n]
    q = np.concatenate([np.atleast_1d(part) for part in qs])
    want = stats.ncx2.ppf(q, df=2, nc=2.0 * k) * scale
    assert want[:2].tolist() == [0.0, np.inf] and np.isnan(want[2:5]).all()
    assert np.array_equal(model.ppf(q), want, equal_nan=True)
    got = model.ppf(0.3)
    assert type(got) is float and got == stats.ncx2.ppf(0.3, df=2, nc=2.0 * k) * scale


RIC = FadingModel("rician", mean_power=3.0, rician_k=2.0)
EDGE_VALUES = [np.nan, np.inf, -np.inf, -1.0, -1e-300, 0.0, -0.0, 5e-324, 1e300]


def rician_cdf_one_shot(model, x):
    """One chndtr call over the whole array, with cdf's x < 0 rule."""
    scale = model.mean_power / (2.0 * (model.rician_k + 1.0))
    return np.where(x < 0, 0.0, special.chndtr(np.maximum(x, 0.0) / scale, 2.0,
                                                2.0 * model.rician_k))


def rician_points(size):
    """Exponential draws with the edge values at both ends, so in both halves."""
    x = np.random.default_rng(3).exponential(3.0, size)
    x[: len(EDGE_VALUES)] = x[-len(EDGE_VALUES):] = EDGE_VALUES
    return x


@pytest.mark.parametrize("size", [SPLIT_POINTS - 1, SPLIT_POINTS, SPLIT_POINTS + 1,
                                  2 * SPLIT_POINTS + 3])
def test_rician_cdf_in_halves_equals_one_shot(size):
    x = rician_points(size)
    want = rician_cdf_one_shot(RIC, x)
    assert np.isnan(want[0]) and want[1] == 1.0
    assert np.array_equal(RIC.cdf(x), want, equal_nan=True)
    assert np.array_equal(RIC.cdf_strict(x), want, equal_nan=True)


def test_rician_cdf_in_halves_keeps_shape_and_views():
    x = rician_points(3 * 5 * (SPLIT_POINTS // 7)).reshape(3, 5, -1)
    got = RIC.cdf(x)
    assert got.shape == x.shape
    assert np.array_equal(got, rician_cdf_one_shot(RIC, x), equal_nan=True)
    view = rician_points(4 * SPLIT_POINTS + 2).reshape(2 * SPLIT_POINTS + 1, 2)[::2].T
    assert not view.flags.c_contiguous and view.size > SPLIT_POINTS
    got = RIC.cdf(view)
    assert got.shape == view.shape
    assert np.array_equal(got, rician_cdf_one_shot(RIC, view), equal_nan=True)


def counted_submits(monkeypatch):
    """The functions given to fading._POOL.submit from now on, in order."""
    calls, submit = [], fading._POOL.submit

    def counting_submit(*args, **kwargs):
        calls.append(args[0])
        return submit(*args, **kwargs)

    monkeypatch.setattr(fading._POOL, "submit", counting_submit)
    return calls


@pytest.mark.parametrize("size, submits", [(SPLIT_POINTS - 1, 0), (SPLIT_POINTS, 1)])
def test_rician_cdf_splits_from_the_threshold_on(monkeypatch, size, submits):
    # the halves run on the calling thread and one pool thread: one submit
    calls = counted_submits(monkeypatch)
    x = rician_points(size)
    assert np.array_equal(RIC.cdf(x), rician_cdf_one_shot(RIC, x), equal_nan=True)
    assert len(calls) == submits


@pytest.mark.parametrize("size", [SPLIT_POINTS, SPLIT_POINTS + 1, 5 * SPLIT_POINTS + 3])
def test_rician_cdf_slabs_are_even_in_number_and_equal(monkeypatch, size):
    # every point is live, so each kernel call takes a whole slab
    sizes, chndtr = [], special.chndtr

    def recording(x, *args, **kwargs):
        sizes.append(x.size)
        return chndtr(x, *args, **kwargs)

    x = np.random.default_rng(4).exponential(3.0, size)
    want = rician_cdf_one_shot(RIC, x)
    monkeypatch.setattr(special, "chndtr", recording)
    assert np.array_equal(RIC.cdf(x), want)
    assert len(sizes) % 2 == 0 and sum(sizes) == size
    assert max(sizes) <= SPLIT_POINTS // 2 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("raise_on", ["pool", "caller"])
def test_rician_cdf_raises_a_slab_exception_once_the_other_slab_ends(monkeypatch, raise_on):
    # each thread holds a slab of 8 when one raises; the other thread ends its
    # slab later, takes no other, and only then is the exception raised
    caller = threading.current_thread()
    pool_took, raised = threading.Event(), threading.Event()
    started, ended, chndtr = [], [], special.chndtr

    def failing(x, *args, **kwargs):
        on_pool = threading.current_thread() is not caller
        started.append(on_pool)
        if on_pool:
            pool_took.set()
        else:
            pool_took.wait(timeout=10)
        if on_pool == (raise_on == "pool"):
            raised.set()
            raise RuntimeError(raise_on)
        raised.wait(timeout=10)
        time.sleep(0.05)  # still running when the other thread's exception arrives
        ended.append(on_pool)
        return chndtr(x, *args, **kwargs)

    x = rician_points(4 * SPLIT_POINTS)
    with monkeypatch.context() as m:
        m.setattr(special, "chndtr", failing)
        with pytest.raises(RuntimeError, match=raise_on):
            RIC.cdf(x)
        assert sorted(started) == [False, True]
        assert ended == [raise_on == "caller"]  # the other thread's slab ended first
        time.sleep(0.1)
        assert len(started) == 2  # no slab runs on after the raise
    assert np.array_equal(RIC.cdf(x), rician_cdf_one_shot(RIC, x), equal_nan=True)


def test_rician_cdf_from_outer_threads_at_once(monkeypatch):
    # three callers on two cores share the pool, with frequent thread switches
    calls = counted_submits(monkeypatch)
    x = rician_points(3 * SPLIT_POINTS)
    want = rician_cdf_one_shot(RIC, x)
    got = []
    start = threading.Barrier(3)

    def work():
        start.wait()
        got.extend(RIC.cdf(x) for _ in range(4))

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
    assert len(got) == 12 and len(calls) == 12  # one submit per cdf of 6 slabs
    assert all(np.array_equal(result, want, equal_nan=True) for result in got)


FIRST_USE_FROM_THREADS = """
import sys, threading
import numpy as np
from relharq import fading
from relharq.fading import SPLIT_POINTS, FadingModel

submit, loaded_at_submit = fading._POOL.submit, []

def recording_submit(*args, **kwargs):
    loaded_at_submit.append("scipy.special" in sys.modules)
    return submit(*args, **kwargs)

fading._POOL.submit = recording_submit
x = np.random.default_rng(3).exponential(3.0, SPLIT_POINTS + 5)
q = np.linspace(0.0, 1.0, 257)
pairs = [(FadingModel("rician", 3.0, rician_k=k), FadingModel("rician", rho))
         for k, rho in ((0.5, 3.0), (2.0, 2.0), (7.5, 1.0))]
got = {}
start = threading.Barrier(3)

def first_use(models):
    start.wait()
    for m in models:  # K > 0 first, then K = 0, each cdf on two threads
        got[m] = (m.cdf(x), m.ppf(q))

threads = [threading.Thread(target=first_use, args=(pair,)) for pair in pairs]
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
from scipy import special
for m in got:
    scale, nc = m.mean_power / (2.0 * (m.rician_k + 1.0)), 2.0 * m.rician_k
    cdf = special.chndtr(x / scale, 2.0, nc) if nc > 0 else special.chdtr(2.0, x / scale)
    ppf = special.chndtrix(q, 2.0, nc) if nc > 0 else 2.0 * special.gammaincinv(1.0, q)
    print(np.array_equal(got[m][0], cdf) and np.array_equal(got[m][1], ppf * scale))
print(sum(t.is_alive() for t in threads), loaded_at_submit)
"""


def test_first_rician_use_from_threads_at_once():
    # scipy.special is imported by the first Rician cdf or ppf, on the calling
    # thread before the one submit of its slabs (at K = 0 too); three threads
    # meeting it at once each get the one-shot kernels' doubles
    src = os.path.dirname(os.path.dirname(fading.__file__))
    proc = subprocess.run([sys.executable, "-c", FIRST_USE_FROM_THREADS], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines() == ["[]"] + ["True"] * 6 + [f"0 {[True] * 6}"]


@pytest.mark.parametrize("threads", [3, 4])
@pytest.mark.parametrize("n_pieces", [1, 2, 11])
def test_on_threads_runs_each_piece_once(monkeypatch, threads, n_pieces):
    # the caller and min(threads, pieces) - 1 pool tasks share one iterator
    submits = counted_submits(monkeypatch)
    ran = []

    def run(piece):
        time.sleep(0.002)  # long enough for every pool task to take a piece
        ran.append((piece, threading.current_thread().name))

    fading._on_threads(run, [f"piece {i}" for i in range(n_pieces)], threads)
    assert sorted(piece for piece, _ in ran) == sorted(f"piece {i}" for i in range(n_pieces))
    assert len(submits) == min(threads, n_pieces) - 1
    assert len({name for _, name in ran}) <= min(threads, n_pieces)


@pytest.mark.parametrize("raiser", [0, 1])  # the first or the second pool thread to start
def test_on_threads_raises_a_pool_exception_once_the_others_stop(raiser):
    # three threads each hold a piece when one pool thread raises; the other
    # pool thread ends its piece later than the caller, takes no other piece,
    # and only then is the exception raised, once
    caller = threading.current_thread()
    together, lock, raising = threading.Barrier(3, timeout=10), threading.Lock(), threading.Event()
    started, ended, pool_threads = [], [], []

    def run(piece):
        with lock:
            started.append(piece)
            if threading.current_thread() is not caller:
                pool_threads.append(threading.current_thread())
        together.wait()
        if threading.current_thread() is pool_threads[raiser]:
            raising.set()
            raise RuntimeError(f"pool piece {piece}")
        raising.wait(timeout=10)
        if threading.current_thread() is not caller:
            time.sleep(0.1)  # still running when the caller has drained
        ended.append(piece)

    with pytest.raises(RuntimeError, match="pool piece"):
        fading._on_threads(run, range(40), 3)
    assert len(started) == 3 and len(ended) == 2  # no piece runs on after the raise
    time.sleep(0.15)
    assert len(started) == 3
    after = []
    fading._on_threads(after.append, range(3), 3)  # the pool serves the next call
    assert sorted(after) == [0, 1, 2]


def test_on_threads_pool_tasks_keep_the_callers_errstate():
    # numpy's errstate is a context variable, which a pool thread does not inherit
    seen = []

    def run(piece):
        time.sleep(0.002)  # long enough for every pool task to take a piece
        seen.append((threading.current_thread().name, np.geterr()["over"]))

    with np.errstate(over="raise"):
        fading._on_threads(run, range(8), 3)
    assert len({name for name, _ in seen}) > 1 and {over for _, over in seen} == {"raise"}
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        RIC.cdf(np.full(SPLIT_POINTS, np.finfo(float).max))  # x / scale overflows in both slabs


def test_on_threads_called_from_a_pool_task_returns():
    # the caller drains the pieces itself, so a call made on a pool thread
    # needs no other pool thread to be free
    ran = []
    task = fading._POOL.submit(fading._on_threads, ran.append, range(9), 4)
    assert task.result(timeout=30) is None
    assert sorted(ran) == list(range(9))


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


@pytest.mark.parametrize("size", [None, (), 1, 65537, (3, 5)])
@pytest.mark.parametrize("k", [0.0, 2.5])
def test_rician_sample_equals_the_two_normal_expression(size, k):
    model = FadingModel("rician", mean_power=1.7, rician_k=k)
    nu = math.sqrt(model.mean_power * k / (k + 1.0))
    sigma = math.sqrt(model.mean_power / (2.0 * (k + 1.0)))
    rng = np.random.default_rng(11)
    g1, g2 = rng.standard_normal(size), rng.standard_normal(size)
    want = (nu + sigma * g1) ** 2 + (sigma * g2) ** 2
    got = model.sample(np.random.default_rng(11), size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [None, (), 1, 65537, (3, 5)])
@pytest.mark.parametrize("rho", [1.0, 1.7, 0.37])
def test_rayleigh_sample_equals_numpy_exponential(size, rho):
    want = np.random.default_rng(11).exponential(rho, size)
    got = FadingModel("rayleigh", mean_power=rho).sample(np.random.default_rng(11), size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [1, 7, 65537, (3, 5)])
@pytest.mark.parametrize("model", [
    FadingModel("rayleigh", mean_power=1.7),
    FadingModel("rician", mean_power=1.7, rician_k=0.0),
    FadingModel("rician", mean_power=1.7, rician_k=2.5),
    FadingModel("pointmass", point_value=0.7),
], ids=["rayleigh", "rician-k0", "rician-k2.5", "pointmass"])
def test_sample_into_out_equals_the_allocating_draw(model, size):
    rngs = np.random.default_rng(11), np.random.default_rng(11)
    want = model.sample(rngs[0], size)
    buf = np.full(size, np.nan)  # a dirty buffer: no earlier value may survive
    got = model.sample(rngs[1], size, out=buf)
    assert got is buf and np.array_equal(got, want)
    assert rngs[0].random() == rngs[1].random()  # the stream is left at the same point


@pytest.mark.parametrize("model", [
    FadingModel("rayleigh", mean_power=1.7),
    FadingModel("rician", mean_power=1.7, rician_k=0.0),
    FadingModel("rician", mean_power=1.7, rician_k=2.5),
    FadingModel("pointmass", point_value=0.7),
], ids=["rayleigh", "rician-k0", "rician-k2.5", "pointmass"])
def test_sample_with_work_allocates_no_draw(model):
    size = 65537
    rngs = np.random.default_rng(11), np.random.default_rng(11)
    want = model.sample(rngs[0], size)
    buf, work = np.full(size, np.nan), np.full(size, np.nan)
    tracemalloc.start()
    try:
        got = model.sample(rngs[1], size, out=buf, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is buf and np.array_equal(got, want)
    assert rngs[0].random() == rngs[1].random()
    assert peak < size  # a second normal draw would take 8 * size bytes


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
