"""Acceptance suite: one test per criterion, one pass/fail line each.

Numerical conventions carried from the unit suites:
  - sigma for a Monte Carlo probability is max(plug-in, under-the-null), so a
    zero-count cell cannot collapse its own gate;
  - exact-lemma gates carry +1e-9 (pure float slack) under ltsc and +2e-4
    under stsc, the documented quadrature floor of the n=256 reference grid.
"""

import csv
import math
import time

import numpy as np
import pytest

from relharq import cli
from relharq.channel import (CompressionPolicy, RatePolicy, SystemConfig,
                             backhaul_usage, conservative_gain,
                             slot_threshold, threshold_offset)
from relharq.fading import FadingModel
from relharq.optimize import GridSpec, optima, throughput
from relharq.simulate import estimate

COARSE = GridSpec(r_max=3.0, r_step=0.25, alpha_step=0.25, refine_rounds=1)


# the random scenarios of the validate job: same draws, one copy
rand_system, rand_tuple = cli._rand_system, cli._rand_tuple


def mc_sigma(analytic, se, n):
    p0 = min(max(analytic, 0.0), 1.0)
    return max(se, math.sqrt(p0 * (1.0 - p0) / n))


def _quantile_panels():
    """Gauss-Legendre nodes/weights on (0,1), panels dyadic toward both ends.

    Equal-mass grids stall on outage integrands whose support hides below the
    lowest quantile node; dyadic panels resolve both boundary layers to the
    truncation mass 2^-50 while 1/64-wide mid panels keep gain-clamp kinks
    local.
    """
    dy = 2.0 ** -np.arange(1, 51)
    edges = np.unique(np.concatenate((dy, 1.0 - dy)))
    refined = [edges[0]]
    for lo, hi in zip(edges, edges[1:]):
        m = max(1, int(np.ceil((hi - lo) * 64.0)))
        refined.extend(np.linspace(lo, hi, m + 1)[1:])
    edges = np.asarray(refined)
    gx, gw = np.polynomial.legendre.leggauss(32)
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (gx + 1.0) * (hi - lo) + lo).ravel()
    w = (0.5 * gw * (hi - lo)).ravel()
    return u, w


_PANEL_U, _PANEL_W = _quantile_panels()


def ltsc_p1_reference(cfg, policy, k):
    """Layer-1 outage after k slots straight from the frozen-gain lemma:
    E_D[ F_S(k-slot threshold) ], integrated to ~1e-9 in the quantile domain."""
    if cfg.model_d.kind == "pointmass":
        d = np.asarray([cfg.model_d.point_value])
        w = np.asarray([1.0])
    else:
        d, w = cfg.model_d.ppf(_PANEL_U), _PANEL_W
    p, alpha = cfg.power, float(policy.alpha)
    a = conservative_gain(d, cfg.s_min, p, cfg.backhaul_capacity)
    x = slot_threshold(float(policy.r1), k, alpha * p, (1.0 - alpha) * p, threshold_offset(a, d))
    return float(cfg.model_s.cdf_strict(x) @ w)


def test_criterion_01_exact_lemma_oracle_equivalence():
    """50 random configs: exact analytic outage entries vs MC at 1e6 sessions."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    n_sessions, worst = 1_000_000, 0.0
    checked = 0
    for i in range(50):
        stsc = i >= 35
        cfg = rand_system(rng, "stsc" if stsc else "ltsc",
                          T=2 if stsc else int(rng.integers(1, 5)),
                          variant=stsc and bool(rng.integers(2)))
        policy = rand_tuple(rng)
        rep = estimate(cfg, policy, CompressionPolicy("constant"),
                       n_sessions=n_sessions, master_seed=1000 + i,
                       batch_size=1 << 17, workers=4)
        if stsc:
            # exact per-slot lemmas; the analytic side carries quadrature
            # error, bounded from the observed grid-doubling increments
            tables = [throughput(cfg, policy, quad_n=n).table for n in (64, 128, 256)]
            entries = []
            for name in ("p1_out", "p2_out", "p2_dec"):
                for k in range(2):
                    coarse, mid, ana = (float(getattr(t, name)[k])
                                        for t in tables)
                    floor = 2.0 * (abs(mid - coarse) + abs(ana - mid)) + 1e-9
                    entries.append((name, k, ana, floor))
        else:
            entries = [("p1_out", k - 1,
                        ltsc_p1_reference(cfg, policy, k), 1e-7)
                       for k in range(1, cfg.max_rounds + 1)]
        for name, k, ana, floor in entries:
            emp = float(getattr(rep.table, name)[k])
            sigma = mc_sigma(ana, rep.table.std_errors[name][k], n_sessions)
            gate = 4.0 * sigma + floor
            assert abs(ana - emp) <= gate, (
                f"config {i} ({cfg.channel_regime}) {name}[{k}]: "
                f"analytic {ana} vs mc {emp}, gate {gate}")
            worst = max(worst, abs(ana - emp) / gate)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"exact-oracle suite took {elapsed:.0f}s (limit 600s)"
    print(f"criterion 1: PASS ({checked} entries over 50 configs, "
          f"worst gap/gate {worst:.2f}, {elapsed:.0f}s)")


def test_criterion_02_approximate_lemma_oracle_equivalence():
    """30 small-leftover-power LTSC configs at 0.02 + 4 sigma; large-abar*P
    gaps are recorded, never asserted."""
    rng = np.random.default_rng(202)
    n_sessions, worst = 200_000, 0.0

    def draw(abar_power):
        power = 10.0 ** (rng.uniform(0.0, 6.0) / 10.0)
        cfg = rand_system(rng, "ltsc", T=int(rng.integers(2, 5)))
        cfg = SystemConfig(power, cfg.backhaul_capacity, cfg.max_rounds,
                           cfg.model_d, cfg.model_s, "ltsc")
        policy = RatePolicy.constant(float(rng.uniform(0.3, 2.2)),
                                     float(rng.uniform(0.05, 0.8)),
                                     1.0 - abar_power / power)
        table = throughput(cfg, policy, quad_n=256).table
        rep = estimate(cfg, policy, CompressionPolicy("constant"),
                       n_sessions=n_sessions, master_seed=rng.integers(1 << 30),
                       batch_size=1 << 16, workers=4)
        gaps = []
        for name in ("p2_out", "p2_dec"):
            for k in range(cfg.max_rounds):
                ana = float(getattr(table, name)[k])
                emp = float(getattr(rep.table, name)[k])
                sig = mc_sigma(ana, rep.table.std_errors[name][k], n_sessions)
                gaps.append((abs(ana - emp), 0.02 + 4.0 * sig))
        return gaps

    for i in range(30):
        for gap, gate in draw(float(rng.uniform(0.005, 0.05))):
            assert gap <= gate, f"approx config {i}: gap {gap} > gate {gate}"
            worst = max(worst, gap / gate)

    recorded = {ap: max(g for g, _ in draw(ap) + draw(ap))
                for ap in (0.2, 0.5)}
    print(f"criterion 2: PASS (30 configs with abar*P <= 0.05, worst gap/gate "
          f"{worst:.2f}; recorded max gaps at abar*P 0.2/0.5: "
          f"{recorded[0.2]:.4f}/{recorded[0.5]:.4f})")


def test_criterion_03_backhaul_saturation():
    """The conservative gain spends exactly Cmax at s_min and never more above."""
    rng = np.random.default_rng(303)
    d = 10.0 ** rng.uniform(-2.0, 2.0, size=1000)
    power = 10.0 ** rng.uniform(-1.0, 1.0, size=1000)
    c_max = np.where(rng.random(1000) < 0.05, 0.0, rng.uniform(0.0, 6.0, 1000))
    s_min = np.where(rng.random(1000) < 0.5, 0.0, rng.uniform(0.0, 3.0, 1000))

    a = conservative_gain(d, s_min, power, c_max)
    usage = backhaul_usage(a, d, s_min, power)
    assert np.max(np.abs(usage - c_max)) <= 1e-9

    s_above = s_min + rng.uniform(0.0, 5.0, size=1000)
    usage_above = backhaul_usage(a, d, s_above, power)
    assert np.all(usage_above <= c_max + 1e-9)
    print(f"criterion 3: PASS (saturation gap {np.max(np.abs(usage - c_max)):.2e}; "
          f"max excess above s_min {np.max(usage_above - c_max):.2e})")


def test_criterion_04_s_hat_feasibility_at_scale():
    """1e7 adaptive sessions, zero inferred-bound or decompression violations."""
    scenarios = [
        (SystemConfig(1.0, 1.5, 3,
                      FadingModel("rician", mean_power=4.0, rician_k=2.0),
                      FadingModel("rayleigh", mean_power=1.0)),
         RatePolicy.constant(0.9, 0.5, 0.95)),
        (SystemConfig(1.2, 2.0, 4,
                      FadingModel("pointmass", point_value=2.0),
                      FadingModel("rayleigh", mean_power=2.0)),
         RatePolicy.constant(1.1, 0.6, 0.93)),
    ]
    adaptations = 0
    for j, (cfg, policy) in enumerate(scenarios):
        rep = estimate(cfg, policy, CompressionPolicy("adaptive"),
                       n_sessions=5_000_000, master_seed=40 + j,
                       batch_size=1 << 17, workers=4)
        assert rep.feasibility_violations == 0
        adaptations += rep.adaptation_count
    assert adaptations > 100_000, "adaptive path barely exercised"
    print(f"criterion 4: PASS (1e7 sessions, {adaptations} adaptations, "
          f"0 violations)")


def test_criterion_05_dominance_suite():
    """(a) bc >= sl; (b) per-node >= fixed; (c) adaptive >= constant at fixed
    tuples under common random numbers."""
    rng = np.random.default_rng(505)
    for i in range(12):
        stsc = i % 3 == 2
        cfg = rand_system(rng, "stsc" if stsc else "ltsc",
                          T=2 if stsc else int(rng.integers(1, 4)))
        bc, sl = optima(cfg, ("bc", "sl"), grid_spec=COARSE, quad_n=24).values()
        assert bc.eta >= sl.eta - 1e-12, f"config {i}: bc {bc.eta} < sl {sl.eta}"

    for i in range(10):
        cfg = rand_system(rng, "ltsc", T=int(rng.integers(1, 4)))
        bc, lc = optima(cfg, ("bc", "bc-lcsit"), grid_spec=COARSE, quad_n=24).values()
        assert lc.eta >= bc.eta - 1e-12, f"config {i}: lcsit {lc.eta} < {bc.eta}"

    margins, adaptations = [], 0
    for i, k_factor in enumerate((0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0,
                                  10.0, 15.0)):
        cfg = SystemConfig(1.0, 2.0, 2,
                           FadingModel("rician", mean_power=100.0,
                                       rician_k=k_factor),
                           FadingModel("rayleigh", mean_power=100.0))
        # tuples tuned for the adaptive policy, so the re-quantization path
        # actually fires when we swap the compression rule underneath them
        tuned = optima(cfg, ["bc"], CompressionPolicy("adaptive"),
                       grid_spec=GridSpec(6.0, 0.2, 0.1, 1), quad_n=24)["bc"]
        reps = {kind: estimate(cfg, tuned.policy, CompressionPolicy(kind),
                               n_sessions=80_000, master_seed=7_000 + i)
                for kind in ("adaptive", "constant")}
        gap = reps["adaptive"].eta - reps["constant"].eta
        ci = 3.0 * math.hypot(reps["adaptive"].eta_std_error,
                              reps["constant"].eta_std_error)
        assert gap >= -ci, f"K={k_factor}: adaptive {gap} below -{ci}"
        margins.append(gap)
        adaptations += reps["adaptive"].adaptation_count
    assert adaptations > 0, "adaptive path never fired at the tuned tuples"
    print(f"criterion 5: PASS (12 bc>=sl, 10 lcsit>=fixed, 10 adaptive-vs-"
          f"constant gaps {min(margins):.4f}..{max(margins):.4f}, "
          f"{adaptations} adaptations)")


def test_criterion_06_relay_snr_trend():
    """Layering gain with local CSI collapses at high relay SNR (<= 25% of its
    0 dB value); without CSI it persists (>= 50%)."""
    grid = GridSpec(r_max=6.0, r_step=0.05, alpha_step=0.02, refine_rounds=3)
    gaps = {}
    for rho_db in (0.0, 20.0):
        cfg = SystemConfig(1.0, 1.0, 2,
                           FadingModel("rician", mean_power=10 ** (rho_db / 10)),
                           FadingModel("rayleigh", mean_power=1.0))
        bc_l, sl_l = optima(cfg, ("bc-lcsit", "sl-lcsit"), grid_spec=grid,
                            quad_n=64).values()
        # each per-node run seeds from its fixed-tuple base; reuse those etas
        gaps[rho_db] = {
            "lcsit": bc_l.eta - sl_l.eta,
            "no_lcsit": bc_l.metadata["seed_eta"] - sl_l.metadata["seed_eta"],
        }
    ratio_l = gaps[20.0]["lcsit"] / gaps[0.0]["lcsit"]
    ratio_n = gaps[20.0]["no_lcsit"] / gaps[0.0]["no_lcsit"]
    assert ratio_l <= 0.25, f"lcsit gap ratio {ratio_l:.3f} > 0.25"
    assert ratio_n >= 0.50, f"no-lcsit gap ratio {ratio_n:.3f} < 0.50"
    print(f"criterion 6: PASS (gap ratio 20dB/0dB: lcsit {ratio_l:.3f} <= 0.25, "
          f"fixed {ratio_n:.3f} >= 0.50)")


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


def test_criterion_07_adaptive_compression_trend(tmp_path):
    """Adaptive-vs-constant throughput gap nondecreasing in the Rician factor."""
    assert cli.main(["figure", "5", "--out", str(tmp_path)]) == 0
    header, rows = read_csv_rows(tmp_path / "figure5.csv")
    i_a, i_c = header.index("eta_adaptive"), header.index("eta_constant")
    i_sa, i_sc = header.index("se_adaptive"), header.index("se_constant")
    gaps = [(r[0], r[i_a] - r[i_c], math.hypot(r[i_sa], r[i_sc])) for r in rows]
    assert [g[0] for g in gaps] == [0.0, 2.0, 5.0, 10.0]
    for (k0, g0, s0), (k1, g1, s1) in zip(gaps, gaps[1:]):
        assert g1 >= g0 - 3.0 * math.hypot(s0, s1), (
            f"gap fell from {g0:.4f} (K={k0}) to {g1:.4f} (K={k1})")
    print("criterion 7: PASS (gaps " +
          " -> ".join(f"{g:.4f}" for _, g, _ in gaps) + " over K=0,2,5,10)")


def test_criterion_08_per_slot_fading_trend(tmp_path):
    """Single-layer prefers per-slot fading everywhere (diversity); layered
    transmission prefers frozen fading at the low-SNR end (opportunistic
    retransmission)."""
    assert cli.main(["figure", "6", "--out", str(tmp_path)]) == 0
    header, rows = read_csv_rows(tmp_path / "figure6.csv")
    idx = {name: header.index(name) for name in header}
    for row in rows:
        assert row[idx["eta_sl_stsc"]] >= row[idx["eta_sl_ltsc"]] - 1e-3, (
            f"single-layer diversity gain missing at {row[0]} dB")
    low = rows[0]
    assert low[idx["eta_bc_ltsc"]] >= low[idx["eta_bc_stsc"]] - 1e-3, (
        "frozen-fading layered advantage missing at the low-SNR end")
    sl_margin = min(r[idx["eta_sl_stsc"]] - r[idx["eta_sl_ltsc"]] for r in rows)
    print(f"criterion 8: PASS ({len(rows)} SNR points, min single-layer "
          f"stsc-ltsc margin {sl_margin:.4f}, low-SNR layered margin "
          f"{low[idx['eta_bc_ltsc']] - low[idx['eta_bc_stsc']]:.4f})")


def test_criterion_09_structural_invariants():
    """Monotonicity, layer ordering, bounds, and total probability over 200
    random analytic tables."""
    rng = np.random.default_rng(909)
    tol_exact, tol_cross = 1e-6, {"ltsc": 0.02, "stsc": 1e-6}
    worst_total = 0.0
    for i in range(200):
        stsc = i % 5 >= 3
        cfg = rand_system(rng, "stsc" if stsc else "ltsc",
                          T=2 if stsc else int(rng.integers(1, 5)),
                          variant=stsc and bool(rng.integers(2)))
        policy = rand_tuple(rng)
        table = throughput(cfg, policy, quad_n=64).table
        for name in ("p1_out", "p2_out", "p2_dec"):
            vals = getattr(table, name)
            assert np.all(vals >= -tol_exact) and np.all(vals <= 1 + tol_exact)
            if name != "p2_dec":
                assert np.all(np.diff(vals) <= tol_exact), \
                    f"config {i}: {name} not nonincreasing"
        cross = np.min(table.p2_out - table.p1_out)
        assert cross >= -tol_cross[cfg.channel_regime], (
            f"config {i}: p2_out below p1_out by {-cross}")
        gap = table.total_probability_gap()
        assert gap <= tol_exact, f"config {i}: total probability off by {gap}"
        worst_total = max(worst_total, gap)
    print(f"criterion 9: PASS (200 configs, worst total-probability gap "
          f"{worst_total:.2e})")


def test_criterion_10_byte_identical_csv_across_workers(tmp_path):
    """The simulate job is a pure function of config and seed, not of the
    worker count."""
    cfg_text = (
        "regime = ltsc\nT = 3\nP_dB = 0.0\nCmax = 1.5\n"
        "fading_D.dist = rician\nfading_D.rho_dB = 6.0\nfading_D.K = 2.0\n"
        "fading_S.dist = rayleigh\nfading_S.rho_dB = 0.0\n"
        "compression = adaptive\npolicy = 0.9,0.5,0.95\n"
        "mc.sessions = 60000\nmc.seed = 21\nmc.batch = 8192\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    blobs = []
    for workers in ("1", "4", "1"):
        out = tmp_path / f"w{workers}-{len(blobs)}"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out), "--workers", workers]) == 0
        blobs.append((out / "simulate.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(f"criterion 10: PASS (byte-identical CSV, {len(blobs[0])} bytes, "
          f"workers 1/4/repeat)")
