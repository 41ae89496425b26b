"""Event-driven Monte Carlo for the two-layer HARQ session protocol.

Sessions run slot by slot on the accumulated-mutual-information decode rule
alone; none of the closed-form outage expressions enter, so these estimates
are an independent oracle for the analytic tables.

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
    adaptive_gain,
    backhaul_usage,
    conservative_gain,
    infer_s_hat,
    mutual_info,
)
from .fading import quantize
from .tables import NumericalError, ProbabilityTable, ThroughputReport

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

    def throughput(self) -> ThroughputReport:
        return ThroughputReport(
            eta=self.eta,
            expected_reward=self.expected_reward,
            expected_length=self.expected_length,
            table=self.table,
            config_echo={"backend": "monte_carlo", "n_sessions": self.n_sessions},
        )


def _check_sim(cfg: SystemConfig, comp: CompressionPolicy):
    if comp.adaptive and cfg.channel_regime != "ltsc":
        raise ValueError("adaptive compression requires the ltsc regime")


def _resolve_rates(policy: RatePolicy, cfg: SystemConfig, d1: np.ndarray):
    """Per-session (r1, r2, alpha) arrays; lcsit tuples follow the slot-1 draw."""
    if policy.mode == "no_lcsit":
        n = len(d1)
        return (np.full(n, float(policy.r1)), np.full(n, float(policy.r2)),
                np.full(n, float(policy.alpha)), None)
    grid = quantize(cfg.model_d, len(policy.r1))
    idx = grid.node_index(d1)
    return policy.r1[idx], policy.r2[idx], policy.alpha[idx], grid


def _run_batch(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
               rng: np.random.Generator, n: int, trace: bool = False):
    """Simulate n sessions; returns counters (and per-slot traces when asked)."""
    T, P = cfg.max_rounds, cfg.power
    cmax, s_min = cfg.backhaul_capacity, cfg.s_min
    ltsc = cfg.channel_regime == "ltsc"

    if ltsc:
        d0 = cfg.model_d.sample(rng, n)
        s0 = cfg.model_s.sample(rng, n)
        d1 = d0
    else:
        d1 = cfg.model_d.sample(rng, n)
        s1 = cfg.model_s.sample(rng, n)
    r1, r2, alpha, grid = _resolve_rates(policy, cfg, d1)

    acc1 = np.zeros(n)
    acc2 = np.zeros(n)
    k1 = np.zeros(n, dtype=np.int64)   # 0 = undecoded
    k2 = np.zeros(n, dtype=np.int64)
    adapted = np.zeros(n, dtype=bool)
    a_hat = np.zeros(n)
    s_hat = np.full(n, np.nan)
    ack_slot = np.zeros(n, dtype=np.int64)
    violations = 0

    if trace:
        d_tr, s_tr = np.zeros((T, n)), np.zeros((T, n))
        acc1_tr, acc2_tr = np.zeros((T, n)), np.zeros((T, n))

    for t in range(1, T + 1):
        if ltsc:
            dt, st = d0, s0
        elif t == 1:
            dt, st = d1, s1
        else:
            dt = cfg.model_d.sample(rng, n)
            st = cfg.model_s.sample(rng, n)
        alpha_t = alpha if (policy.mode == "no_lcsit" or ltsc) else policy.alpha[grid.node_index(dt)]

        a_t = conservative_gain(dt, s_min, P, cmax)
        if comp.adaptive:
            a_t = np.where(adapted, a_hat, a_t)

        pend1 = k1 == 0
        pend2 = k2 == 0
        p_sig1, p_sig2 = alpha_t * P, (1.0 - alpha_t) * P
        p_int2 = p_sig1 if cfg.bc_layer2_interference else 0.0
        i1 = mutual_info(p_sig1, p_sig2, a_t, st, dt)
        i2 = np.where(pend1,
                      mutual_info(p_sig2, p_int2, a_t, st, dt),
                      mutual_info(P, 0.0, a_t, st, dt))
        acc1 = np.where(pend1, acc1 + i1, acc1)
        acc2 = np.where(pend2, acc2 + i2, acc2)
        k1[pend1 & (acc1 >= r1)] = t
        k2[pend2 & (k1 > 0) & (acc2 >= r2)] = t

        if comp.adaptive:
            ack = (k1 == t) & (k2 == 0)  # layer-1-only feedback this slot
            if np.any(ack):
                a_d = conservative_gain(dt[ack], s_min, P, cmax)
                sh = infer_s_hat(r1[ack], t, alpha_t[ack], dt[ack], a_d, P, s_min)
                s_hat[ack] = sh
                a_hat[ack] = adaptive_gain(dt[ack], sh, P, cmax)
                adapted |= ack
                ack_slot[ack] = t
                bad = (st[ack] < sh - _FEAS_TOL) | (
                    backhaul_usage(a_hat[ack], dt[ack], st[ack], P) > cmax + _FEAS_TOL
                )
                violations += int(np.count_nonzero(bad))

        if trace:
            d_tr[t - 1], s_tr[t - 1] = dt, st
            acc1_tr[t - 1], acc2_tr[t - 1] = acc1, acc2

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
        "adaptations": int(np.count_nonzero(adapted)),
        "violations": violations,
        "n": n,
    }
    if trace:
        out["trace"] = (d_tr, s_tr, acc1_tr, acc2_tr, k1, k2, lengths, ack_slot, s_hat)
    return out


def simulate_session(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
                     rng: np.random.Generator) -> SessionOutcome:
    """One session through the same stepper the batch estimator uses."""
    _check_sim(cfg, comp)
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
    _check_sim(cfg, comp)
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
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
        provenance="monte_carlo", n_sessions=n,
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
