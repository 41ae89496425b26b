"""Exact T=2 outage/decode probabilities, short-term static channel.

Gains (D_t, S_t) are redrawn i.i.d. each slot, so the two-slot events factor
through the slot-1 pair (D1, S1) and a slot-2 threshold on S2:

  p1_out(2)  layer 1 misses both slots: S1 below the one-slot threshold and
             S2 below the threshold of the residual rate h = R1 - I1(D1,S1)
  phi        layer 1 done in slot 1, layer 2 misses its BC credit and the
             slot-2 single-layer window
  gamma      layer 1 done in slot 2, layer 2's two BC credits fall short:
             S2 in [layer-1 residual threshold, layer-2 residual threshold)
  p2_out(2) = p1_out(2) + phi + gamma;  p2_dec(1) from the two one-slot
             thresholds; the rest of the table follows by counting.

Everything is evaluated on one shared grid: quantile nodes for D1 (reused for
D2) and quantile bins for S1, with the slot-1 indicator masses computed exactly
per bin (partial masses at the threshold-crossing bins) and the smooth inner
S2/D2 expectations evaluated at bin nodes.  All table identities then hold
pointwise on the grid, and the S1 quadrature error stays quadratic in the bin
width because every inner expectation is continuous across its gate.

r1/r2 accept vectors (the optimizer's tuple grids); alpha stays scalar per call.

Evaluation rule: the slot-2 threshold separates.  At residual rate res and
D2 node j it is u(res) - c_j, with u = slot_threshold(res, 1, p_sig, p_int, 0)
per (d1, s1) cell and c = a/b the threshold offset per node, so each inner
expectation over (D2, S2) is one monotone function of one scalar, G(u) =
sum_j w_j Pr[S2 < u - c_j] (`node_cdf_sum`): q_miss = G(u1), phi_miss =
G(u_phi), and, F being monotone, gamma's inner sum is G(max(u1, u2)) - G(u1), so
p1_out(2) + gamma = sum m_fail max(G(u1), G(u2)).  G is taken only on the
support: for G(u1) the (r1, d1, s1) cells with nonzero m_fail; for G(u_phi)
the (r2, d1, s1) cells where F2 exceeds the smallest F1, outside which the
mass lam1 <= S1 < lam2 is 0 for every r1; for G(u2) the cells where u2 exceeds
some live u1.  Elsewhere G stays 0 and meets a zero mass or loses the max, so
an inner NaN off the support reaches no total.

lam1(r1, d1) and lam2(r2, d1) do not depend on S1, so the mass S1 < max(lam1,
lam2) is the S1 < lam1 row or the S1 < lam2 row of the whole bin axis, picked
once per (r1, r2, d1).  p2_dec_1 and phi are therefore (q1, q2, nd) sums of
per-row bin sums (phi's cross term one batched matmul per d1 node); only gamma
is formed on the (r1, r2, d1, s1) block, a few r1 rows at a time in blocks of
about BLOCK_CELLS cells.  Everything that depends on the scenario but not on
the tuple (the quadrature nodes, the S1 edge cdfs, a1, its offset c, which
lam1 and lam2 read, and G) is one `Slot1Grid`, built once per evaluator and
shared by all its blocks.

G is most of the time of a fine Rician quadrature.  Its cdf sum is one cdf
call per chunk, which `fading` runs in slabs on two threads, with the doubles
of one thread (`node_cdf_sum`).

r1 is taken in passes of R1_CELLS // n^2 rows (`r1_passes`), and each pass
in two steps: its r1 side (`r1_side`: lam1, m_fail, u1, g1, and so p1_out(1)
and p1_out(2)), then the cells of chosen rows over the r2 axis
(`side_quantities`).  The optimizer reads p1_out(2) in between and chooses
the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (SystemConfig, check_supported, conservative_gain, mutual_info,
                      slot_threshold, threshold_offset)
from .fading import FadingModel, quantize
from .tables import ConfigError

# 512 KB per block array of the gamma pass, which also reads g1, m_fail and g2
# rows; 2^15 to 2^18 time alike on a 2 MB L2 cache, 2^20 is slower
BLOCK_CELLS = 2**16
# r1 rows x n^2 cells per pass of r1 rows (`r1_passes`), which bounds its
# (q1, n, n) arrays at 4 MB each; its (q2, n, n) arrays are formed once per pass
R1_CELLS = 1 << 19
G_CELLS = 1_000_000  # (u, node) pairs per chunk of G (`node_cdf_sum`), 8 MB a float array


def node_cdf_sum(model: FadingModel, c, w):
    """G(u) = sum_j w_j Pr[S < u - c_j] as a function of a 1-D array u.

    Rayleigh S has a closed form over the sorted c: with k = #{c_j < u},
    G(u) = W_k - S_k exp(-(u - c_{k-1}) / rho), where W_k = w_0 + ... + w_{k-1}
    and S_k = sum_{j<k} w_j exp(-(c_{k-1} - c_j) / rho) is a running sum whose
    exponents are all <= 0, so nothing overflows; k = 0 gives 0.  Point-mass S
    gives the prefix weight W_k with k = #{j : u - c_j > value}, the nodes whose
    indicator is 1.  Rician S, and Rayleigh S with a non-finite c, sum the cdf
    over the nodes, evaluating it only where u - c_j > 0 (or NaN): at or below 0
    it is exactly 0.  A NaN u gives NaN.  G takes u in chunks of G_CELLS // n
    cells, halved for the cdf sum, which is one cdf call in place over the
    chunk's u - c_j (at most max(G_CELLS / 2, n) pairs; `fading` runs a large
    one in slabs on two threads, with the doubles of one call), and then one
    `x @ w` over the whole chunk, whose row count, and so its bits, do not
    depend on the threads.
    """
    order = np.argsort(c, kind="stable")
    c, w = np.asarray(c, dtype=float)[order], np.asarray(w, dtype=float)[order]
    W = np.concatenate(([0.0], np.cumsum(w)))
    step = max(1, G_CELLS // len(c))

    def chunked(f, size):  # f maps a chunk of `size` u to their values of G
        def g(u):
            out = np.empty(u.shape)
            for i in range(0, len(u), size):
                out[i : i + size] = f(u[i : i + size])
            return out
        return g

    if model.kind == "pointmass":
        def prefix_weight(u):  # NaN where some u - c_j is NaN, as in the cdf sum
            x = u[:, None] - c
            return np.where(np.isnan(x).any(axis=1), np.nan, W[(x > model.point_value).sum(1)])
        return chunked(prefix_weight, step)
    if model.kind == "rician" or not np.isfinite(c).all():
        def cdf_sum(u):
            x = u[:, None] - c
            model.cdf_strict(x, x)
            return x @ w
        return chunked(cdf_sum, max(1, step // 2))
    rho = model.mean_power
    decay = np.exp(-np.diff(c, prepend=c[0]) / rho)
    S = np.zeros_like(W)
    for j in range(len(c)):
        S[j + 1] = S[j] * decay[j] + w[j]

    def closed_form(u):
        k = np.searchsorted(c, u, side="left")  # NaN sorts last: k = n, G = NaN
        # the exponent is < 0 where k > 0; at k = 0, exp(0) gives W_0 - S_0 = 0
        return W[k] - S[k] * np.exp(np.minimum((c[k - 1] - u) / rho, 0.0))
    return chunked(closed_form, step)


@dataclass(frozen=True)
class Slot1Grid:
    """The slot-1 quadrature of one scenario, shared by every tuple block:
    D1 nodes d1 with weights wd, S1 bin nodes s1 with edges lo, hi, F_lo = Pr[S1
    < lo] and F_hi = Pr[S1 < hi], the conservative gain a1 and its threshold
    offset c at each d1, and G."""

    d1: np.ndarray
    wd: np.ndarray
    s1: np.ndarray
    a1: np.ndarray
    c: np.ndarray
    G: Callable
    lo: np.ndarray
    hi: np.ndarray
    F_lo: np.ndarray
    F_hi: np.ndarray


def slot1_grid(cfg: SystemConfig, n: int) -> Slot1Grid:
    """The Slot1Grid of cfg at quadrature size n.

    Rejects a scenario without an stsc closed form, and n > 724 before any
    array is formed (one tuple at n = 724 peaks at about 58 MB).
    """
    check_supported(cfg, regime="stsc")
    if n * n > R1_CELLS:
        raise ConfigError(f"quad.n: {n} exceeds {int(R1_CELLS**0.5)}, the largest stsc "
                          "quadrature whose n x n slot-1 grid fits one r1 pass")
    grid_d, grid_s = quantize(cfg.model_d, n), quantize(cfg.model_s, n)
    d1, Fs1 = grid_d.nodes, cfg.model_s.cdf_strict
    a1 = conservative_gain(d1, cfg.s_min, cfg.power, cfg.backhaul_capacity)
    c = threshold_offset(a1, d1)
    # D2 is i.i.d. with D1: G sums over the same nodes, each at its c
    G = node_cdf_sum(cfg.model_s, c, grid_d.weights)
    # S1 bin boundaries and the exact slot-1 indicator masses per bin.  Bin
    # masses come from the cdf at the edges (not the nominal quantile weights)
    # so the three-way partition telescopes to total mass 1 exactly.
    lo = np.concatenate(([-np.inf], grid_s.edges))
    hi = np.concatenate((grid_s.edges, [np.inf]))
    return Slot1Grid(d1, grid_d.weights, grid_s.nodes, a1, c, G, lo, hi, Fs1(lo), Fs1(hi))


def r1_passes(r1_vec, n: int) -> list:
    """The r1 rows of each pass, R1_CELLS // n^2 at a time, which bounds the
    (q1, n, n) arrays of a pass; its (q2, n, n) ones hold the whole r2 axis."""
    r1, rows = np.atleast_1d(np.asarray(r1_vec, dtype=float)), R1_CELLS // (n * n)
    return [r1[i : i + rows] for i in range(0, len(r1), rows)]


def _cdf_in_bins(F, grid, c):
    """F(clip(c, lo, hi)) on a new last axis of grid's S1 bins, from one F per c."""
    c = c[..., None]  # F_lo where c <= lo, F_hi where c >= hi, else F(c): the clip's bits
    out = np.where(c <= grid.lo, grid.F_lo, F(c))
    np.copyto(out, grid.F_hi, where=c >= grid.hi)
    return out


def _total(wd, x):
    """The D1 and S1 sums of x (..., nd, ns), D1 weighted by wd."""
    return np.einsum("d,...ds->...", wd, x)


def _on_support(G, u, cells):
    """G(u) on the cells, 0 elsewhere."""
    out = np.zeros(u.shape)
    out[cells] = G(u[cells])
    return out


@dataclass(frozen=True)
class _R1Side:
    """What one pass forms from its r1 rows alone: lam1 (q1, nd); m_fail, the
    mass S1 < lam1 per bin, and g1 = G(u1) on the cells where it is nonzero
    (q1, nd, ns); p1_out_1 and p1_out_2 (q1,); and the reductions over the
    pass's rows that the cell pass reads: the smallest F1 = F(clip(lam1)),
    whether any row fails, and the smallest live u1, each (nd, ns)."""

    lam1: np.ndarray
    m_fail: np.ndarray
    g1: np.ndarray
    p1_out_1: np.ndarray
    p1_out_2: np.ndarray
    F1_min: np.ndarray
    fails_any: np.ndarray
    u1_live: np.ndarray


def r1_side(cfg: SystemConfig, r1, alpha: float, grid: Slot1Grid) -> _R1Side:
    """The r1 side of one pass of rows r1: everything up to p1_out(2), which has no r2."""
    P = cfg.power
    ap, abp = alpha * P, (1.0 - alpha) * P
    d1, s1, a1 = grid.d1, grid.s1, grid.a1
    lam1 = slot_threshold(r1[:, None], 1, ap, abp, grid.c)          # (q1, nd)
    F1 = _cdf_in_bins(cfg.model_s.cdf_strict, grid, lam1)          # (q1, nd, ns)
    F1_min = F1.min(axis=0)
    m_fail = np.subtract(F1, grid.F_lo, out=F1)                     # mass S1 < lam1, in place
    # the slot-2 threshold u at c = 0 of the residual rate r1 - I1(d1, s1-node)
    i1 = mutual_info(ap, abp, a1[:, None], s1, d1[:, None])         # (nd, ns)
    u1 = slot_threshold(r1[:, None, None] - i1, 1, ap, abp, 0.0)    # (q1, nd, ns)
    fails = m_fail != 0
    u1_live = np.where(fails, u1, np.inf).min(axis=0)               # NaN stays NaN
    g1 = _on_support(grid.G, u1, fails)
    del u1
    return _R1Side(lam1, m_fail, g1, _total(grid.wd, m_fail), _total(grid.wd, m_fail * g1),
                   F1_min, fails.any(axis=0), u1_live)


def side_quantities(cfg: SystemConfig, side: _R1Side, r2, alpha: float, grid: Slot1Grid,
                    rows=slice(None)):
    """The four table entries of one pass from its r1 side over the r2 axis, at
    its r1 rows `rows` (an index array, or every row).  The reductions over r1
    (those of the r1 side, and phi's cross term, whose matmul bits depend on its
    row count) span every row of the pass; the rest is formed on `rows` only,
    one row independent of the others, so a row keeps its bits in any subset."""
    P = cfg.power
    ap, abp = alpha * P, (1.0 - alpha) * P
    p_int2 = ap if cfg.bc_layer2_interference else 0.0
    d1, wd, s1, a1, G = grid.d1, grid.wd, grid.s1, grid.a1, grid.G

    lam2 = slot_threshold(r2[:, None], 1, abp, p_int2, grid.c)      # (q2, nd)
    F2 = _cdf_in_bins(cfg.model_s.cdf_strict, grid, lam2)          # (q2, nd, ns)
    # the mass lam1 <= S1 < lam2 is F2 - F1 where lam2 > lam1, else 0; F is
    # monotone, so it is nonzero only where F2 exceeds the smallest F1
    phi_cells = ~(F2 <= side.F1_min)
    m_below2 = np.subtract(F2, grid.F_lo, out=F2)                   # mass S1 < lam2, in place

    i2 = mutual_info(abp, p_int2, a1[:, None], s1, d1[:, None])     # (nd, ns)
    r2p = r2[:, None, None] - i2                                    # (q2, nd, ns)
    u2 = slot_threshold(r2p, 1, abp, p_int2, 0.0)
    g2 = _on_support(G, u2, side.fails_any & ~(u2 <= side.u1_live))
    del u2
    g_phi = _on_support(G, slot_threshold(r2p, 1, P, 0.0, 0.0), phi_cells)
    # phi = sum over lam2 > lam1 of (m_below2 - m_fail) g_phi; the m_fail g_phi
    # term is one (q1, ns) x (ns, q2) product per d1 node
    cross = np.matmul(side.m_fail.transpose(1, 0, 2), g_phi.transpose(1, 2, 0))[:, rows]
    lam1, m_fail, g1 = side.lam1[rows], side.m_fail[rows], side.g1[rows]
    q1, q2 = len(lam1), len(r2)

    # S1 < max(lam1, lam2) is the S1 < lam1 row where lam1 wins (a NaN lam1
    # included, as np.maximum propagates it), else the S1 < lam2 row
    first = (lam1[:, None] >= lam2[None]) | np.isnan(lam1)[:, None]  # (q1, q2, nd)
    m_below_max = np.where(first, m_fail.sum(axis=-1)[:, None], m_below2.sum(axis=-1)[None])
    p2_dec_1 = ((grid.F_hi - grid.F_lo).sum() - m_below_max) @ wd
    phi = np.where(first, 0.0, (m_below2 * g_phi).sum(axis=-1) - cross.transpose(1, 2, 0)) @ wd

    p2_out_2 = np.empty((q1, q2))
    step = max(1, BLOCK_CELLS // g2.size)                           # r1 rows per block
    for i in range(0, q1, step):
        block = slice(i, i + step)
        # G(max(u1, u2)) = max(G(u1), G(u2)); the max of the values keeps gamma >= 0
        g_max = np.maximum(g1[block, None], g2[None])
        g_max *= m_fail[block, None]
        p2_out_2[block] = _total(wd, g_max) + phi[block]            # p1_out_2 + gamma + phi

    return {"p1_out_1": np.repeat(side.p1_out_1[rows][:, None], q2, axis=1),
            "p1_out_2": np.repeat(side.p1_out_2[rows][:, None], q2, axis=1),
            "p2_dec_1": p2_dec_1, "p2_out_2": p2_out_2}


def quantity_tables(q: dict):
    """(p1_out, p2_out, p2_dec), each (..., 2), from the four entries of side_quantities."""
    return (np.stack([q["p1_out_1"], q["p1_out_2"]], axis=-1),
            np.stack([1.0 - q["p2_dec_1"], q["p2_out_2"]], axis=-1),
            np.stack([q["p2_dec_1"], 1.0 - q["p2_dec_1"] - q["p2_out_2"]], axis=-1))
