"""Closed-form per-node outage/decode tables, long-term static channel.

Gains (D, S) are drawn once per session and frozen over all T slots.  Layer 1
decodes within k slots iff S >= x_k(D) where x_k is the k-slot threshold of the
BC-mode layer-1 rate.  Given a layer-1 decode at slot l, layer 2 accumulates
l BC slots of conditional MI plus (k-l) single-layer slots; under the small
abar*P approximation the BC credit per slot is (1/2)log2(c/b) with
c = b + abar*P*a, which turns "layer 2 decoded by slot k" into the threshold
event S >= thr_l(k).  Decode-by thresholds are cumulative-min'ed in k so the
per-session event chain is an exact interval partition (the per-entry values
inherit the approximation): only p1 and p2_out are computed, and p2_dec(k) =
p2_out(k-1) - p2_out(k) is their first difference (`decode_table`).
`optimize.throughput` averages them over the D grid.

The same-slot term (layer 2 finishing in the layer-1 decode slot) keeps its
exact threshold y_l from l slots of f_I(abar*P, 0, a, S, D) >= R2; it agrees
with the approximate indicator whenever the latter decides, and keeps the tail
otherwise.

Adaptive compression swaps the single-layer-slot gain a for a_hat computed
from the feedback bound s_hat at the layer-1 decode slot.

Evaluation rule: the S-link cdf F runs once per threshold array, at that
array's own shape (x_l over (r1, alpha, node), a layer-2 threshold over its own
inputs), never on the broadcast (r1, r2, node) block.  F is carried through the
cumulative min, and F(min(u, v)) is picked elementwise from F(u) and F(v):
min returns one of its arguments, so the picked double is the one F would
have returned.  The thresholds are walked l-major, so only
the running thr_l(k) of one l is live at a time.  Under adaptive compression
a layer-2 threshold depends on r1 only through the offset c of a_hat, so with
a Rician S, whose cdf is the costly kernel, F runs once per distinct offset per
node (`_distinct_rows`): the r1 rows where s_hat is clamped to s_min, or where
layer 1 cannot decode at l, all share one.  Equal inputs give equal doubles
through the same elementwise operations, so the chain is formed on one row of
each group and then spread to the others, exactly.

node_tables runs in two steps: the r1 side (`layer1_side`: x_l and F(x_l),
which read no r2), then the layer-2 thresholds over the r2 axis.  The
optimizer reads p1_out(l) = F(x_l) in between, bounds each row's E[R] and
E[L] with them, and chooses the rows it forms.

What depends on the scenario and the nodes but not on the tuple, the node
grid with the conservative gain a, b = 1 + a/d and the threshold offset
c = a/b at each node, is one `NodeGrid` (`node_grid`), built once per
evaluator and read by every block: the layer-1 and same-slot thresholds and
the constant-compression chain take its c, and only an adaptive a_hat forms
its own offset, once per l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    CompressionPolicy,
    SystemConfig,
    _split_gain,
    check_supported,
    conservative_gain,
    infer_s_hat,
    slot_threshold,
    threshold_offset,
)
from .fading import cdf_of_min, quantize


def _pos(x):
    return np.maximum(x, 0.0)


def _same(v):
    return v


def _distinct_rows(c, R):
    """The offset c once per group of equal rows, and the map that spreads back.

    slot_threshold(R, ., ., ., c) depends on its row (axis 0) only through c
    when R, which carries the node axis, is constant along axis 0: rows whose
    c has equal bits then give equal thresholds and equal cdf values.  So the
    rows of each column are grouped by the bits of c.  Returns (c_rep,
    spread): c_rep (m, ...) holds the c of each group, NaN where a column has
    fewer than m groups (F of NaN costs next to nothing, and no row reads it),
    and spread(v) takes a v formed from c_rep to every row.  Where R varies
    along axis 0, every row is its own group: (c, _same), as in an empty block.
    """
    ndim = max(c.ndim, R.ndim)
    if (R.ndim == ndim and R.shape[0] > 1) or c.size == 0:
        return c, _same
    c = c.reshape((1,) * (ndim - c.ndim) + c.shape)
    q = c.shape[0]
    flat = c.reshape(q, -1)
    order = np.argsort(flat.view(np.int64), axis=0)
    ranked = np.take_along_axis(flat, order, axis=0)
    bits = ranked.view(np.int64)
    first = np.ones(flat.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    group = np.cumsum(first, axis=0) - 1
    inv = np.empty_like(group)
    np.put_along_axis(inv, order, group, axis=0)
    pos, col = np.nonzero(first)
    c_rep = np.full((group[-1].max() + 1, flat.shape[1]), np.nan)
    c_rep[group[pos, col], col] = ranked[pos, col]
    inv = inv.reshape(c.shape)
    return c_rep.reshape((-1,) + c.shape[1:]), lambda v: np.take_along_axis(v, inv, axis=0)


@dataclass(frozen=True)
class NodeGrid:
    """The D node grid of one scenario, shared by every block and tuple: the
    nodes d with their quadrature weights, and at each node the conservative
    gain a, b = 1 + a/d and the threshold offset c = a/b."""

    nodes: np.ndarray
    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def node_grid(cfg: SystemConfig, n: int) -> NodeGrid:
    """The NodeGrid of cfg on the n-point quadrature of D (`fading.quantize`)."""
    grid = quantize(cfg.model_d, n)
    d = grid.nodes
    a = conservative_gain(d, cfg.s_min, cfg.power, cfg.backhaul_capacity)
    return NodeGrid(d, grid.weights, a, _split_gain(a, d), threshold_offset(a, d))


def layer1_side(cfg: SystemConfig, r1, alpha, grid: NodeGrid):
    """node_tables' prefix, which reads no r2: the layer-1 decode-within-l
    thresholds x_l with their F(x_l), l = 1..T, two lists of arrays at the
    broadcast shape of r1, alpha and the nodes.  p1_out(l) = F(x_l); each is
    elementwise, so the rows of x and F(x) are those rows' own side."""
    P = cfg.power
    r1, alpha = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, alpha))
    x = [slot_threshold(r1, l, alpha * P, (1.0 - alpha) * P, grid.c)
         for l in range(1, cfg.max_rounds + 1)]
    return x, [cfg.model_s.cdf_strict(v) for v in x]


def node_tables(
    cfg: SystemConfig,
    r1,
    r2,
    alpha,
    grid: NodeGrid,
    comp: CompressionPolicy = CompressionPolicy(),
    side=None,
):
    """Per-node conditional tables (p1, p2_out), each shaped (..., nd, T).

    r1/r2/alpha broadcast against the node axis, so a scalar tuple gives
    (nd, T) and per-node policies pass nd-vectors.  p1(k) = F(x_k) is built at
    the thresholds' own (r1, alpha, node) shape and returned as a read-only
    view at the block shape.  p2_out(k) is F(x_k) plus the S-mass of
    [x_l, min(x_{l-1}, thr_l(k))) for l = 1..k, added in order.  side, when
    given, is `layer1_side` of these r1 and alpha, not formed again.  grid
    is `node_grid(cfg, n)`.
    """
    check_supported(cfg, comp, regime="ltsc")
    P, cmax, T = cfg.power, cfg.backhaul_capacity, cfg.max_rounds
    s_min = cfg.s_min
    d, a, b, c = grid.nodes, grid.a, grid.b, grid.c  # a dead link (d = 0): a = c = 0, b = 1
    F = cfg.model_s.cdf_strict
    x, Fx = layer1_side(cfg, r1, alpha, grid) if side is None else side
    x, Fx = [np.inf, *x], [F(np.inf), *Fx]  # x_0 = +inf

    r1, r2, alpha = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, r2, alpha))
    abar = 1.0 - alpha

    # approximate per-BC-slot layer-2 credit (1/2)log2(c'/b), c' = b + abar P a
    g2 = 0.5 * np.log2(1.0 + abar * P * a / b)

    shape = np.broadcast_shapes(r1.shape, r2.shape, alpha.shape, d.shape)
    p1 = np.broadcast_to(np.stack(Fx[1:], axis=-1), shape + (T,))
    p2o = p1.copy()

    # l-major: thr is thr_l(k), the S-threshold for "layer 2 decoded by slot k
    # given layer 1 at slot l", cumulative-min'ed over k = l..T with F(thr)
    # carried along, so each raw threshold passes through F once.  One chain
    # per distinct offset pays where F is the Rician kernel (75-200 ns a
    # point); a Rayleigh or point-mass F over the block costs less than the
    # two gathers (about 12 ns a cell each) that spread a grouped chain.
    by_gain = comp.adaptive and cfg.model_s.kind == "rician"
    for l in range(1, T + 1):
        thr = slot_threshold(r2, l, abar * P, 0.0, c)  # same-slot threshold
        F_thr = F(thr)
        if comp.adaptive:
            s_hat = infer_s_hat(r1, l, alpha, c, P, s_min)
            # +inf means "layer 1 cannot decode at l"; the interval is empty,
            # substitute a dummy so a_hat stays finite
            s_hat = np.where(np.isposinf(s_hat), 1.0, s_hat)
            c_sl = threshold_offset(conservative_gain(d, s_hat, P, cmax), d)
        else:
            c_sl = c
        R = r2 - l * g2
        c_rep, spread = _distinct_rows(c_sl, R) if by_gain else (c_sl, _same)
        for k in range(l, T + 1):
            thr_k, F_k = thr, F_thr  # drops the rows spread for k - 1
            if k > l:
                raw = slot_threshold(R, k - l, P, 0.0, c_rep)
                F_thr = cdf_of_min(thr, raw, F_thr, F(raw))
                thr = np.minimum(thr, raw)
                del raw  # not live while the chain is spread
                thr_k, F_k = spread(thr), spread(F_thr)
            p2o[..., k - 1] += _pos(cdf_of_min(x[l - 1], thr_k, Fx[l - 1], F_k) - Fx[l])

    return p1, p2o


def decode_table(p2_out):
    """p2_dec(k) = p2_out(k-1) - p2_out(k) over the last axis, p2_out(0) = 1,
    clipped at 0: the decode events partition the outage intervals."""
    return _pos(-np.diff(p2_out, axis=-1, prepend=1.0))

