"""Event-driven Monte Carlo for the two-layer HARQ session protocol.

Sessions run slot by slot on the accumulated-mutual-information decode rule
alone; none of the closed-form outage expressions enter, so these estimates
are an independent oracle for the analytic tables.

Evaluation rule: a slot forms each session's channel terms once.  The
compression gain a, b = 1 + a/d and g = s b + a are formed once per session
under LTSC, where the gains are frozen (an adaptation overwrites b and g at
the sessions it acknowledges), and once per slot under STSC.  Each layer then
takes one f_I pass (`channel._info`); layer 2 selects its powers per session,
against layer 1 or alone, before its pass.  Selecting an elementwise op's
operands and then computing equals computing and then selecting, so every
element takes the float operations `mutual_info` would, in the same order,
and every counter and trace is bit-identical to a stepper that calls
`mutual_info` per slot and layer (the reference in
`tests/test_exact_reference.py`).

Determinism: session batch b draws from the b-th spawn of the master
SeedSequence and batch counters are reduced in batch order, so a report is
bit-identical for any worker count and across repeated runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    CompressionPolicy,
    RatePolicy,
    SystemConfig,
    _info,
    _split_gain,
    backhaul_usage,
    check_supported,
    conservative_gain,
    infer_s_hat,
)
from .fading import quantize
from .tables import NumericalError, ProbabilityTable

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SessionOutcome:
    """One simulated session, with enough trace to audit the decode rule."""

    slot_m1_decoded: int | None
    slot_m2_decoded: int | None
    session_length: int
    d: np.ndarray            # per experienced slot
    s: np.ndarray
    acc_mi_1: np.ndarray     # accumulated MI after each experienced slot
    acc_mi_2: np.ndarray
    adaptation_slot: int | None
    s_hat: float | None


@dataclass(frozen=True)
class EstimateReport:
    """Empirical probability table and throughput with standard errors."""

    table: ProbabilityTable
    eta: float
    eta_std_error: float
    expected_reward: float
    expected_length: float
    n_sessions: int
    master_seed: int
    adaptation_count: int
    feasibility_violations: int


def _resolve_rates(policy: RatePolicy, cfg: SystemConfig, d1: np.ndarray):
    """(r1, r2, alpha): floats for a single tuple, per-session arrays for lcsit
    tuples, which follow the slot-1 draw."""
    if policy.mode == "no_lcsit":
        return float(policy.r1), float(policy.r2), float(policy.alpha), None
    grid = quantize(cfg.model_d, len(policy.r1))
    idx = grid.node_index(d1)
    return policy.r1[idx], policy.r2[idx], policy.alpha[idx], grid


def _take(x, idx):
    """x at idx as an array, whether x is per session or one float, so that
    infer_s_hat runs the same array loops for a single tuple as for lcsit ones."""
    return x[idx] if np.ndim(x) else np.full(idx.size, x)


def _run_batch(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
               rng: np.random.Generator, n: int, trace: bool = False):
    """Simulate n sessions; returns counters (and per-slot traces when asked)."""
    T, P = cfg.max_rounds, cfg.power
    cmax, s_min = cfg.backhaul_capacity, cfg.s_min
    ltsc = cfg.channel_regime == "ltsc"

    def gains(d, s):
        a = conservative_gain(d, s_min, P, cmax)
        b = _split_gain(a, d)
        return a, b, s * b + a

    dt = cfg.model_d.sample(rng, n)
    st = cfg.model_s.sample(rng, n)
    r1, r2, alpha, grid = _resolve_rates(policy, cfg, dt)
    if ltsc:
        a, b, g = gains(dt, st)

    acc1 = np.zeros(n)
    acc2 = np.zeros(n)
    k1 = np.zeros(n, dtype=np.int64)   # 0 = undecoded
    k2 = np.zeros(n, dtype=np.int64)
    s_hat = np.full(n, np.nan)
    ack_slot = np.zeros(n, dtype=np.int64)
    violations = 0

    if trace:
        d_tr, s_tr = np.zeros((T, n)), np.zeros((T, n))
        acc1_tr, acc2_tr = np.zeros((T, n)), np.zeros((T, n))

    for t in range(1, T + 1):
        if not ltsc:
            if t > 1:
                dt = cfg.model_d.sample(rng, n)
                st = cfg.model_s.sample(rng, n)
            a, b, g = gains(dt, st)
        alpha_t = alpha if (policy.mode == "no_lcsit" or ltsc) else policy.alpha[grid.node_index(dt)]

        pend1 = k1 == 0
        pend2 = k2 == 0
        p_sig1, p_sig2 = alpha_t * P, (1.0 - alpha_t) * P
        p_int2 = p_sig1 if cfg.bc_layer2_interference else 0.0
        i1 = _info(p_sig1, p_sig2, b, g)
        # layer 2 faces layer 1 until layer 1 is decoded, then has the whole slot
        i2 = _info(np.where(pend1, p_sig2, P), np.where(pend1, p_int2, 0.0), b, g)
        np.add(acc1, i1, out=acc1, where=pend1)
        np.add(acc2, i2, out=acc2, where=pend2)
        np.copyto(k1, t, where=pend1 & (acc1 >= r1))
        np.copyto(k2, t, where=pend2 & (k1 > 0) & (acc2 >= r2))

        if comp.adaptive:
            ack = np.flatnonzero((k1 == t) & (k2 == 0))  # layer-1-only feedback this slot
            if ack.size:
                d_a, s_a = dt[ack], st[ack]
                sh = infer_s_hat(_take(r1, ack), t, _take(alpha_t, ack), d_a, a[ack], P, s_min)
                s_hat[ack] = sh
                a_hat = conservative_gain(d_a, sh, P, cmax)
                b[ack] = b_hat = _split_gain(a_hat, d_a)
                g[ack] = s_a * b_hat + a_hat
                ack_slot[ack] = t
                bad = (s_a < sh - _FEAS_TOL) | (
                    backhaul_usage(a_hat, d_a, s_a, P) > cmax + _FEAS_TOL
                )
                violations += int(np.count_nonzero(bad))

        if trace:
            d_tr[t - 1], s_tr[t - 1] = dt, st
            acc1_tr[t - 1], acc2_tr[t - 1] = acc1, acc2

    # a NaN never reaches a rate, so it would pass for an outage
    if np.isnan(acc1).any() or np.isnan(acc2).any():
        raise NumericalError("mutual information is NaN in a Monte Carlo session")
    lengths = np.where(k2 > 0, k2, T)
    reward = r1 * (k1 > 0) + r2 * (k2 > 0)
    out = {
        "c1": np.bincount(k1, minlength=T + 1),
        "c2": np.bincount(k2, minlength=T + 1),
        "sum_L": int(lengths.sum()),
        "sum_L2": int((lengths * lengths).sum()),
        "sum_R": float(reward.sum()),
        "sum_R2": float((reward * reward).sum()),
        "sum_RL": float((reward * lengths).sum()),
        "adaptations": int(np.count_nonzero(ack_slot)),
        "violations": violations,
        "n": n,
    }
    if trace:
        out["trace"] = (d_tr, s_tr, acc1_tr, acc2_tr, k1, k2, lengths, ack_slot, s_hat)
    return out


def simulate_session(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
                     rng: np.random.Generator) -> SessionOutcome:
    """One session through the same stepper the batch estimator uses."""
    check_supported(cfg, comp, backend="mc")
    res = _run_batch(cfg, policy, comp, rng, 1, trace=True)
    d_tr, s_tr, acc1_tr, acc2_tr, k1, k2, lengths, ack_slot, s_hat = res["trace"]
    L = int(lengths[0])
    return SessionOutcome(
        slot_m1_decoded=int(k1[0]) or None,
        slot_m2_decoded=int(k2[0]) or None,
        session_length=L,
        d=d_tr[:L, 0].copy(),
        s=s_tr[:L, 0].copy(),
        acc_mi_1=acc1_tr[:L, 0].copy(),
        acc_mi_2=acc2_tr[:L, 0].copy(),
        adaptation_slot=int(ack_slot[0]) or None,
        s_hat=float(s_hat[0]) if ack_slot[0] else None,
    )


def estimate(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
             n_sessions: int, master_seed: int, batch_size: int = 1 << 16,
             workers: int = 1) -> EstimateReport:
    """Empirical tables and throughput from n_sessions independent sessions."""
    check_supported(cfg, comp, backend="mc")
    for name, value in (("n_sessions", n_sessions), ("batch_size", batch_size),
                        ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    T = cfg.max_rounds
    sizes = [batch_size] * (n_sessions // batch_size)
    if n_sessions % batch_size:
        sizes.append(n_sessions % batch_size)
    seqs = np.random.SeedSequence(master_seed).spawn(len(sizes))

    def job(i):
        return _run_batch(cfg, policy, comp, np.random.default_rng(seqs[i]), sizes[i])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(len(sizes))))
    else:
        results = [job(i) for i in range(len(sizes))]

    c1 = sum(r["c1"] for r in results)
    c2 = sum(r["c2"] for r in results)
    sums = {k: sum(r[k] for r in results)
            for k in ("sum_L", "sum_L2", "sum_R", "sum_R2", "sum_RL", "adaptations", "violations")}
    n = n_sessions

    if sums["violations"]:
        raise NumericalError(
            f"{sums['violations']} decompression-feasibility violations: "
            "s_hat inference or gain selection is buggy"
        )

    p1_out = (n - np.cumsum(c1[1:])) / n
    p2_out = (n - np.cumsum(c2[1:])) / n
    p2_dec = c2[1:] / n

    def binom_se(p):
        return np.sqrt(np.clip(p * (1 - p), 0, None) / n)

    table = ProbabilityTable(
        p1_out=p1_out, p2_out=p2_out, p2_dec=p2_dec,
        std_errors={"p1_out": binom_se(p1_out), "p2_out": binom_se(p2_out),
                    "p2_dec": binom_se(p2_dec)},
    )

    mean_R, mean_L = sums["sum_R"] / n, sums["sum_L"] / n
    eta = sums["sum_R"] / sums["sum_L"]
    if n > 1:
        var_R = (sums["sum_R2"] - n * mean_R**2) / (n - 1)
        var_L = (sums["sum_L2"] - n * mean_L**2) / (n - 1)
        cov = (sums["sum_RL"] - n * mean_R * mean_L) / (n - 1)
        se = np.sqrt(max(var_R - 2 * eta * cov + eta**2 * var_L, 0.0) / n) / mean_L
    else:
        se = np.inf
    return EstimateReport(
        table=table, eta=eta, eta_std_error=float(se),
        expected_reward=mean_R, expected_length=mean_L,
        n_sessions=n, master_seed=master_seed,
        adaptation_count=sums["adaptations"], feasibility_violations=sums["violations"],
    )
