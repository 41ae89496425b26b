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

The per-session updates are bit masks, not masked ufuncs: on the random
masks a slot leaves, `np.add(..., where=)` and `np.copyto(..., where=)` run
about ten times slower than unmasked.  A bool row becomes an int64 mask of all
ones or 0 (`_mask`).  An accumulator adds f_I & mask, which is +0.0 off the
mask and so leaves the sum's bits alone (NaN and inf included), since a sum
that starts at +0.0 never holds -0.0 (`_masked_add`).  A layer-2 power is
y ^ ((x ^ y) & mask) on the doubles' bits (`_pick`), and a decode slot, 0 until
it is set, takes t & mask by an or.  Each gives the bits of the `where=` form
it replaces.

Memory rule: `estimate` runs its batches on the calling thread and
workers - 1 pool threads (`fading._on_threads`), and builds one workspace per
thread (`_workspace`, sized to a full batch); every batch that thread runs
steps through it, a shorter batch through prefix views.  Every per-slot
array is written through `out=` into it: the draws (a Rician draw's second
normal draw into a scratch row), the gains, f_I and its denominator, the
layer-2 powers, the masks (in the scratch row of the gain a, free once the
gains are formed), the decode tests, the adaptive branch (in prefixes of the
scratch rows) and the end-of-batch reductions.  A batch then allocates only
an n-byte bool temporary, the adaptive branch's index of acknowledged
sessions and a per-node policy's per-session rates and powers; `_split_gain`
takes no mask when every d > 0 and every a >= 0, as on continuous draws.
glibc hands each freed 512 KB temporary back to the OS, so a stepper that
allocated its arrays per slot, or its workspace per batch, would fault
their pages in again on every use.  No per-batch state outlives its fold,
so the peak does not grow with the number of batches.

Determinism: session batch b draws from SeedSequence(master_seed,
spawn_key=(b,)), the b-th child of SeedSequence(master_seed).spawn(n), and
batch counters are folded from 0 in batch order as batches finish, so a
report is bit-identical for any worker count and across repeated runs.
"""

from __future__ import annotations

import threading
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
    threshold_offset,
)
from .fading import MAX_THREADS, _on_threads, quantize
from .tables import NumericalError, ProbabilityTable, ThroughputReport

_FEAS_TOL = 1e-9
MAX_BATCH = 1 << 20  # batch_size cap: one thread's workspace is 99 MiB at 2^20 sessions


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
class EstimateReport(ThroughputReport):
    """Empirical probability table and throughput with standard errors."""

    eta_std_error: float
    n_sessions: int
    master_seed: int
    adaptation_count: int
    feasibility_violations: int


def _resolve_rates(policy: RatePolicy, grid, d1: np.ndarray):
    """(r1, r2, alpha): floats for a single tuple; for lcsit tuples, per-session
    arrays read on the D node grid at the slot-1 draw."""
    if grid is None:
        return float(policy.r1), float(policy.r2), float(policy.alpha)
    idx = grid.node_index(d1)
    return policy.r1[idx], policy.r2[idx], policy.alpha[idx]


def _take(x, idx):
    """x at idx when it is per session; one float stays one float."""
    return x[idx] if np.ndim(x) else x


def _mask(flag, out):
    """flag as an int64 mask in out: all ones where flag is true, 0 elsewhere."""
    return np.negative(flag, out=out, dtype=np.int64)


def _masked_add(acc, x, mask):
    """np.add(acc, x, out=acc, where=flag) for mask = _mask(flag), bit for bit,
    on an acc that holds no -0.0: off the mask it adds +0.0, which leaves any
    other double (NaN and inf included) as it is.  x, a float array, is
    overwritten."""
    bits = x.view(np.int64)
    np.bitwise_and(bits, mask, out=bits)
    return np.add(acc, x, out=acc)


def _pick(x, y, mask, out):
    """np.where(flag, x, y) into out for mask = _mask(flag), bit for bit, as
    y ^ ((x ^ y) & mask) on the doubles' bits; x and y are floats or arrays,
    neither of them out."""
    x, y = (np.asarray(v, dtype=float).view(np.int64) for v in (x, y))
    bits = out.view(np.int64)
    np.bitwise_xor(x, y, out=bits)
    np.bitwise_and(bits, mask, out=bits)
    np.bitwise_xor(bits, y, out=bits)
    return out


def _workspace(n: int):
    """One worker's buffers for batches of up to n sessions: ten float rows,
    two int64 rows (the decode slots) and three bool rows."""
    return np.empty((10, n)), np.empty((2, n), dtype=np.int64), np.empty((3, n), dtype=bool)


def _run_batch(cfg: SystemConfig, policy: RatePolicy, comp: CompressionPolicy,
               rng: np.random.Generator, n: int, trace: bool = False, ws=None, grid=None):
    """Simulate n sessions; returns counters (and per-slot traces when asked).

    ws is a `_workspace` of at least n sessions, which the batch overwrites
    (a new one when None); grid is the D node grid of an lcsit policy (built
    here when None)."""
    T, P = cfg.max_rounds, cfg.power
    cmax, s_min = cfg.backhaul_capacity, cfg.s_min
    ltsc = cfg.channel_regime == "ltsc"
    if grid is None and policy.mode == "lcsit":
        grid = quantize(cfg.model_d, policy.r1.size)
    floats, ints, flags = (buf[:, :n] for buf in (ws or _workspace(n)))
    # a, i, w and x are scratch; under LTSC d, s, b and g hold for the session
    d, s, a, b, g, acc1, acc2, i, w, x = floats
    k1, k2 = ints  # decode slot per layer, 0 = undecoded
    pend1, pend2, hit = flags
    mask = a.view(np.int64)  # a is free once the gains are formed

    def gains():
        conservative_gain(d, s_min, P, cmax, out=a, work=i)
        _split_gain(a, d, out=b)
        np.add(np.multiply(s, b, out=g), a, out=g)

    # a Rician draw's second normal draw goes to i, a row every batch writes:
    # x is written only by the adaptive branch, so a batch at constant
    # compression would fault its pages in for the draw alone
    cfg.model_d.sample(rng, n, out=d, work=i)
    cfg.model_s.sample(rng, n, out=s, work=i)
    r1, r2, alpha = _resolve_rates(policy, grid, d)
    if ltsc:
        gains()
    acc1.fill(0.0)
    acc2.fill(0.0)
    k1.fill(0)
    k2.fill(0)
    adaptations = violations = 0

    if trace:
        d_tr, s_tr = np.zeros((T, n)), np.zeros((T, n))
        acc1_tr, acc2_tr = np.zeros((T, n)), np.zeros((T, n))
        s_hat = np.full(n, np.nan)
        ack_slot = np.zeros(n, dtype=np.int64)

    for t in range(1, T + 1):
        if not ltsc:
            if t > 1:
                cfg.model_d.sample(rng, n, out=d, work=i)
                cfg.model_s.sample(rng, n, out=s, work=i)
            gains()
        alpha_t = alpha if (policy.mode == "no_lcsit" or ltsc) else policy.alpha[grid.node_index(d)]

        np.equal(k1, 0, out=pend1)
        np.equal(k2, 0, out=pend2)
        p_sig1, p_sig2 = alpha_t * P, (1.0 - alpha_t) * P
        _mask(pend1, mask)
        _masked_add(acc1, _info(p_sig1, p_sig2, b, g, out=i, work=w), mask)
        # layer 2 faces layer 1 until layer 1 is decoded, then has the whole slot
        _pick(p_sig2, P, mask, out=i)
        p_bar = 0.0
        if cfg.bc_layer2_interference:
            p_bar = _pick(p_sig1, 0.0, mask, out=w)
        _masked_add(acc2, _info(i, p_bar, b, g, out=i, work=w), _mask(pend2, mask))
        # a decode slot is 0 until it is set, so or-ing t in at the hits sets it
        np.logical_and(pend1, np.greater_equal(acc1, r1, out=hit), out=hit)
        np.bitwise_or(k1, np.bitwise_and(_mask(hit, mask), t, out=mask), out=k1)
        decoded1 = np.greater(k1, 0, out=pend1)  # pend1 is not read again this slot
        np.logical_and(pend2, np.greater_equal(acc2, r2, out=hit), out=hit)
        np.logical_and(hit, decoded1, out=hit)
        np.bitwise_or(k2, np.bitwise_and(_mask(hit, mask), t, out=mask), out=k2)

        if comp.adaptive:
            # layer-1-only feedback this slot: a session is acknowledged at most once
            np.logical_and(np.equal(k1, t, out=hit), np.equal(k2, 0, out=pend2), out=hit)
            ack = np.flatnonzero(hit)
            m = ack.size
            if m:
                # four scratch prefixes: d_a; a_d, then a_hat; s_hat, then b_hat,
                # g_hat and the backhaul usage; the offset of a_d, then a work
                # row, then s_a.  a_d is the gains' a at these sessions, formed
                # again: no row keeps a
                d_a, a_hat, sh, s_a = a[:m], i[:m], w[:m], x[:m]
                np.take(d, ack, out=d_a, mode="clip")  # "clip" takes no bounds-checked copy
                a_d = conservative_gain(d_a, s_min, P, cmax, out=a_hat, work=sh)
                c_d = threshold_offset(a_d, d_a, out=s_a)
                infer_s_hat(_take(r1, ack), t, _take(alpha_t, ack), c_d, P, s_min, out=sh)
                if trace:
                    s_hat[ack] = sh
                    ack_slot[ack] = t
                conservative_gain(d_a, sh, P, cmax, out=a_hat, work=s_a)
                np.take(s, ack, out=s_a, mode="clip")
                bad = np.less(s_a, np.subtract(sh, _FEAS_TOL, out=sh), out=pend1[:m])
                b_hat = _split_gain(a_hat, d_a, out=sh)
                b[ack] = b_hat
                g[ack] = np.add(np.multiply(s_a, b_hat, out=sh), a_hat, out=sh)
                usage = backhaul_usage(a_hat, d_a, s_a, P, out=sh, work=s_a)
                np.logical_or(bad, np.greater(usage, cmax + _FEAS_TOL, out=pend2[:m]), out=bad)
                violations += int(np.count_nonzero(bad))
                adaptations += m

        if trace:
            d_tr[t - 1], s_tr[t - 1] = d, s
            acc1_tr[t - 1], acc2_tr[t - 1] = acc1, acc2

    # a NaN never reaches a rate, so it would pass for an outage
    if np.isnan(acc1, out=pend1).any() or np.isnan(acc2, out=pend1).any():
        raise NumericalError("mutual information is NaN in a Monte Carlo session")
    c1 = np.bincount(k1, minlength=T + 1)
    c2 = np.bincount(k2, minlength=T + 1)
    if trace:
        k1, k2 = k1.copy(), k2.copy()  # the reductions below overwrite their buffers
    reward = np.multiply(r1, np.greater(k1, 0, out=pend1), out=a)
    np.add(reward, np.multiply(r2, np.greater(k2, 0, out=pend2), out=i), out=reward)
    lengths = ints[0]  # where(k2 > 0, k2, T), as k2 | (T & mask(k2 == 0))
    _mask(np.equal(k2, 0, out=pend2), lengths)
    np.bitwise_or(k2, np.bitwise_and(lengths, T, out=lengths), out=lengths)
    out = {
        "c1": c1,
        "c2": c2,
        "sum_L": int(lengths.sum()),
        "sum_L2": int(np.multiply(lengths, lengths, out=ints[1]).sum()),
        "sum_R": float(reward.sum()),
        "sum_R2": float(np.multiply(reward, reward, out=i).sum()),
        "sum_RL": float(np.multiply(reward, lengths, out=i).sum()),
        "adaptations": adaptations,
        "violations": violations,
        "n": n,
    }
    if trace:
        out["trace"] = (d_tr, s_tr, acc1_tr, acc2_tr, k1, k2, lengths.copy(), ack_slot, s_hat)
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
    """Empirical tables and throughput from n_sessions independent sessions, run
    in batches of batch_size on the calling thread and workers - 1 pool threads."""
    check_supported(cfg, comp, backend="mc")
    knobs = (("n_sessions", n_sessions, np.inf), ("batch_size", batch_size, MAX_BATCH),
             ("workers", workers, MAX_THREADS))
    for name, value, cap in knobs:
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
        if value > cap:
            raise ValueError(f"{name} must be <= {cap}")
    grid = quantize(cfg.model_d, policy.r1.size) if policy.mode == "lcsit" else None
    local = threading.local()  # one workspace per thread, for every batch it runs
    lock, finished, folded, sums = threading.Lock(), {}, 0, {}  # finished: not yet folded

    def job(i):
        nonlocal folded
        if not hasattr(local, "ws"):
            local.ws = _workspace(min(batch_size, n_sessions))
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
        res = _run_batch(cfg, policy, comp, rng, min(batch_size, n_sessions - i * batch_size),
                         ws=local.ws, grid=grid)
        with lock:  # a left fold from 0, in batch order
            finished[i] = res
            while folded in finished:
                done = finished.pop(folded)
                for key in done:
                    sums[key] = sums.get(key, 0) + done[key]
                folded += 1

    _on_threads(job, range(-(-n_sessions // batch_size)), workers)
    c1, c2, n = sums["c1"], sums["c2"], n_sessions

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
