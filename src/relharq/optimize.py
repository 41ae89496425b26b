"""Closed-form throughput at one policy (`throughput`, the analytic twin of
`simulate.estimate`) and its maximization over the coding tuple (R1, R2, alpha).

Search strategy: a coarse grid, then local refinement with halved steps around
the incumbent, plus Dinkelbach fractional programming for the per-node
policies.  An alpha block is formed in two steps: the r1 side of each pass of
r1 rows (`_Evaluator.sides`), which gives each row's p1_out(T), then the cells
of the rows `_scan` keeps, over the r2 axis (`_Evaluator.block`).  Once a
single-tuple scan has an incumbent, it keeps only the rows whose bound eta <=
(r1 + max r2)(1 - p1_out(T)) reaches it (`_reaches`): a branch-and-bound over
rows in the manner of Land and Doig, whose skipped rows can neither win nor
tie, so every pick is the exhaustive grid's.  A scan that keeps per-node
fronts, and the Monte Carlo backend, form every cell.  Dominance between
nested policy classes is made structural by seeding each richer search with
the best tuple of the poorer one: the two-layer search starts from the
single-layer incumbent, the per-node search starts from the single-tuple
incumbent, so the expected orderings hold by construction and not merely by
grid luck.

Candidate comparison key is (eta desc, alpha desc, then r1, r2 asc), which
makes every argmax deterministic under ties.

One pass serves every policy class (`_optimize`, which `optima` runs for a
scenario).  The single-layer slice (r2 = 0, alpha = 1) is scanned and
refined once and seeds the rest; the two-layer lattice is streamed by alpha
once and refined once; Dinkelbach then runs for the per-node classes from
those incumbents.  Its per-node values E[R|d], E[L|d] do not depend on
lambda, so each alpha block is reduced once to a per-node front, the rows
that can be the first argmax of R - lambda L for some lambda >= 0 after
rounding (`_front`).  Dinkelbach takes np.argmax over each front in lattice
order, so every pick, tie, lambda and iteration count is the one a
full-lattice scan gives.  Every block comes from `_Evaluator.block` as
per-node (E[R], E[L], weights) on the quad_n quadrature grid, which is also
the per-node policy grid, so the scan keeps the front of each block it forms
and `_scan` is the only code that forms a block.  The fronts hold for
lambda >= 0 only; lambda < 0 is a negative throughput and raises
NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig, check_supported
from .config import GridSpec
from .fading import DEFAULT_QUAD_N, quantize
from .ltsc import decode_table, layer1_side, node_reward_length, node_tables
from .simulate import estimate
from .stsc import (quantity_tables, r1_passes, r1_side, side_quantities, slot1_grid,
                   stsc_quantities)
from .tables import NumericalError, ProbabilityTable, ThroughputReport, reward_length

_MARGIN = 8 * np.finfo(float).eps  # 16 unit roundoffs, see _front
_TOL, _MAX_ITER = 1e-6, 50  # Dinkelbach stops once lambda moves by less than _TOL
CLASSES = ("sl", "bc", "sl-lcsit", "bc-lcsit")


@dataclass(frozen=True)
class OptimizationResult:
    policy: RatePolicy
    eta: float
    backend: str
    metadata: dict = field(default_factory=dict)


class _Evaluator:
    """One scenario by regime and backend: per-node E[R], E[L] and node weights
    over a (r1, r2) block at fixed alpha (`sides`, then `block`: the scan), or eta
    and the table at one policy (`report`).

    mc holds the Monte Carlo budget as keywords of `estimate`; n_sessions and
    master_seed default to 20000 and 0 here, the other keys to `estimate`'s.
    grid holds what the closed forms share across blocks, built once here: the
    D node grid (LTSC) or the slot-1 grid (`stsc.slot1_grid`, STSC).
    """

    def __init__(self, cfg, comp, backend, quad_n, mc=None):
        check_supported(cfg, comp, backend)
        self.cfg, self.comp, self.backend = cfg, comp, backend
        self.quad_n = quad_n
        self.mc = {"n_sessions": 20_000, "master_seed": 0, **(mc or {})}
        if backend != "analytic":
            self.grid = None
        elif cfg.channel_regime == "ltsc":
            self.grid = quantize(cfg.model_d, quad_n)
        else:
            self.grid = slot1_grid(cfg, quad_n)
        self.n_evals = 0

    def sides(self, r1v: np.ndarray, alpha: float):
        """The r1 step of a block: per pass of r1 rows, (side, p1), side the pass's
        (r1, alpha, what `block` reads of them) and p1 their node-weighted
        p1_out(T): node_tables' prefix in one pass (LTSC), the r1 side of each
        `r1_passes` pass (STSC), or p1 NaN, which keeps every row (Monte Carlo)."""
        if self.backend == "mc":
            yield (r1v, alpha, None), np.full(len(r1v), np.nan)
        elif self.cfg.channel_regime == "ltsc":
            a, x, Fx = layer1_side(self.cfg, r1v[:, None, None], alpha, self.grid)
            yield (r1v, alpha, (a, x, Fx)), Fx[-1][:, 0] @ self.grid.weights  # F(x_T)
        else:
            for r1 in r1_passes(r1v, self.quad_n):
                side = r1_side(self.cfg, r1, alpha, self.grid)
                yield (r1, alpha, side), side.p1_out_2
                del side

    def block(self, side, r2v: np.ndarray, rows: np.ndarray):
        """Per-node (reward, length, weights) of the rows `rows` of a `sides` pass
        over r2v: E[R|d] and E[L|d] (len(rows), q2, nd) and the node weights
        (nd,), eta their weighted ratio; a row keeps its bits in the whole block.
        LTSC is read on the D node grid; the STSC quantities and a Monte Carlo
        eta (with length 1) are one node of weight 1."""
        r1v, alpha, part = side
        r1 = r1v[rows]
        if self.backend == "mc":
            # common random numbers: every tuple sees the same seed
            eta = [[self.report(RatePolicy.constant(x, y, alpha)).eta for y in r2v] for x in r1]
            return np.array(eta)[..., None], np.ones((len(r1), len(r2v), 1)), np.ones(1)
        if self.cfg.channel_regime == "ltsc":
            r1, r2 = r1[:, None, None], r2v[None, :, None]
            a, x, Fx = part  # the gain a per node; x and F(x) per row
            part = a, [v[rows] for v in x], [v[rows] for v in Fx]
            tables = node_tables(self.cfg, r1, r2, alpha, self.grid, self.comp, part)
            return *reward_length(r1, r2, *tables), self.grid.weights
        q = side_quantities(self.cfg, part, r2v, alpha, self.grid, rows)
        reward, length = reward_length(r1[:, None], r2v[None, :], *quantity_tables(q)[:2])
        return reward[..., None], length[..., None], np.ones(1)

    def report(self, policy: RatePolicy):
        """eta, expected_reward, expected_length and table at one policy.

        A per-node policy is read on its own node grid, one node per tuple
        (the evaluator's grid when it has quad_n tuples); the STSC table is
        one node of weight 1.
        """
        if self.backend == "mc":
            return estimate(self.cfg, policy, self.comp, **self.mc)
        check_supported(self.cfg, self.comp, per_node=policy.mode == "lcsit")
        if self.cfg.channel_regime == "ltsc":
            same = policy.mode == "no_lcsit" or policy.r1.size == self.quad_n
            grid = self.grid if same else quantize(self.cfg.model_d, policy.r1.size)
            p1, p2o = node_tables(self.cfg, policy.r1, policy.r2, policy.alpha, grid, self.comp)
            tables, weights = (p1, p2o, decode_table(p2o)), grid.weights
        else:
            q = stsc_quantities(self.cfg, policy.r1, policy.r2, float(policy.alpha), self.quad_n,
                                grid=self.grid)
            tables, weights = tuple(t[0] for t in quantity_tables(q)), np.ones(1)
        er, el = (float(v @ weights) for v in reward_length(policy.r1, policy.r2, *tables[:2]))
        table = ProbabilityTable(*(np.einsum("i,...ik->...k", weights, t) for t in tables))
        return ThroughputReport(eta=er / el, expected_reward=er, expected_length=el, table=table)


def throughput(cfg: SystemConfig, policy: RatePolicy, comp=CompressionPolicy("constant"),
               quad_n: int = DEFAULT_QUAD_N) -> ThroughputReport:
    """Closed-form eta = E[R]/E[L], E[R], E[L] and table at one policy, either regime;
    a per-node (LTSC) policy is read on its own node grid, one node per tuple."""
    return _Evaluator(cfg, comp, "analytic", quad_n).report(policy)


def _reaches(r1, r2v, p1_out, floor):
    """The rows whose bound on eta, with its margin, is not below floor (NaN included).

    E[L] >= 1 and p2_out(T) >= p1_out(T), so eta <= (r1 + max r2)(1 - p1_out(T)).
    The margin, bound (1 + 1e-9) + 1e-12, covers the rounding of both sides,
    probabilities that miss [0, 1] by a few ulps and node weights that do not
    sum to exactly 1.
    """
    bound = (r1 + r2v.max()) * (1.0 - p1_out)
    return ~(bound * (1.0 + 1e-9) + 1e-12 < floor)


def _better(cand, best):
    """(eta, alpha, r1, r2): max eta, then max alpha, then lexicographic-min rates.

    Ties prefer the largest power share for layer 1 so the degenerate
    no-uncertainty optimum reports as the single-layer tuple it really is.
    """
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] > best[1]
    return cand[2:] < best[2:]


def _scan(ev: _Evaluator, r1_axis, r2_axis, alpha_axis, best=None, fronts=None):
    """Best (eta, alpha, r1, r2) over the lattice; appends each block's _front to fronts.

    The one row rule: without fronts, each block after the first incumbent
    is formed on the r1 rows whose bound reaches it (`_reaches`), pass by
    pass of `_Evaluator.sides`.  A row left out holds only cells strictly
    below the incumbent, so the first argmax over the kept rows, in lattice
    order, is the one over the block whenever it can win, and every pick,
    tie and refine round is the full lattice's.
    """
    for alpha in alpha_axis:
        ev.n_evals += len(r1_axis) * len(r2_axis)
        floor = -np.inf if best is None or fronts is not None else best[0]
        kept = []  # (r1, reward, length, weights) of each pass's kept rows
        for side, p1 in ev.sides(r1_axis, float(alpha)):
            rows = np.flatnonzero(_reaches(side[0], r2_axis, p1, floor))
            if len(rows):
                kept.append((side[0][rows], *ev.block(side, r2_axis, rows)))
            del side  # one pass's side at a time
        if not kept:  # every row left out
            continue
        # one argmax over all passes: per-pass picks merged by _better miss a later NaN eta
        r1, reward, length = (v[0] if len(kept) == 1 else np.concatenate(v)
                              for v in list(zip(*kept))[:3])
        weights = kept[0][3]
        if fronts is not None:
            fronts.append(_front(reward, length))
        eta = (reward @ weights) / (length @ weights)
        flat = int(np.argmax(eta))  # first max: lexicographic-min (r1, r2)
        i, j = divmod(flat, eta.shape[1])
        cand = (float(eta[i, j]), float(alpha), float(r1[i]), float(r2_axis[j]))
        if _better(cand, best):
            best = cand
    return best


def _refine(ev: _Evaluator, spec: GridSpec, best, frozen_r2=None, frozen_alpha=None):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for round_ in range(1, spec.refine_rounds + 1):
        hr = spec.r_step / 2**round_
        ha = spec.alpha_step / 2**round_
        _, alpha, r1, r2 = best
        r1_axis = np.unique(np.clip(r1 + hr * offsets, 0.0, spec.r_max))
        r2_axis = (np.array([frozen_r2]) if frozen_r2 is not None
                   else np.unique(np.clip(r2 + hr * offsets, 0.0, spec.r_max)))
        alpha_axis = (np.array([frozen_alpha]) if frozen_alpha is not None
                      else np.unique(np.clip(alpha + ha * offsets, 0.0, 1.0)))
        best = _scan(ev, r1_axis, r2_axis, alpha_axis, best)
    return best


def _result(ev: _Evaluator, best, extra_meta, n_evals):
    policy = RatePolicy.constant(best[2], best[3], best[1])
    meta = {"grid_eta": best[0], "n_evals": n_evals, **extra_meta}
    return OptimizationResult(policy=policy, eta=best[0], backend=ev.backend, metadata=meta)


def _compact(keep, *arrays):
    """Rows of each (K, nd) array where keep holds, per node in row order: (m, nd) + valid."""
    node, row = np.nonzero(keep.T)
    counts = np.bincount(node, minlength=keep.shape[1])
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    valid = np.zeros((int(counts.max()), keep.shape[1]), dtype=bool)
    valid[slot, node] = True
    out = []
    for arr in arrays:
        o = np.zeros(valid.shape, dtype=arr.dtype)
        o[slot, node] = arr[row, node]
        out.append(o)
    return valid, *out


def _outclassed(reward, length):
    """(m, nd) mask of rows that some row beats by the rounding margin, see _front."""
    order = np.argsort(length, axis=0)
    ls = np.take_along_axis(length, order, 0)
    rs = np.take_along_axis(reward, order, 0)
    hi_r = rs + _MARGIN * np.abs(rs)
    lo_l = ls - _MARGIN * np.abs(ls)
    # A run of sorted lengths starts where the previous length is below the
    # new row's margin; every row before the run is below the margin of all
    # its rows, so the best reward before the run settles each of them.
    start = np.zeros(ls.shape, dtype=np.intp)
    start[1:] = np.where(ls[:-1] < lo_l[1:], np.arange(1, len(ls))[:, None], 0)
    np.maximum.accumulate(start, axis=0, out=start)
    best = np.take_along_axis(np.maximum.accumulate(rs, axis=0), np.maximum(start - 1, 0), 0)
    out = np.empty(ls.shape, dtype=bool)
    np.put_along_axis(out, order, (start > 0) & (best > hi_r) & ~np.isnan(ls), 0)
    return out


def _front(reward: np.ndarray, length: np.ndarray):
    """Per-node candidates of one (q1, q2, nd) block for the argmax of R - lam L, lam >= 0.

    Row q removes row p when, for every lam >= 0, q's rounded score is at
    least p's and q comes first in lattice order (R_q >= R_p, L_q <= L_p, q
    earlier), or q's rounded score is strictly larger (R_q > R_p + 16u|R_p|
    and L_q < L_p - 16u|L_p|, u the unit roundoff).  Rounding is monotone, so
    the first argmax over the survivors in lattice order is the first argmax
    over the block, ties included.  NaN rows always survive.  The first rule
    runs against the previous r1 row and r2 column, then the second, by one
    sort; each drops only rows that cannot be the first argmax, and `_compact`
    keeps lattice order.  Returns (pos, reward, length), each (m, nd), pos
    the lattice row, padded with reward -inf and length 0.
    """
    nd = reward.shape[-1]
    drop = np.zeros(reward.shape, dtype=bool)
    for ax in (0, 1):
        head, tail = [slice(None)] * 3, [slice(None)] * 3
        head[ax], tail[ax] = slice(None, -1), slice(1, None)
        drop[tuple(tail)] |= ((reward[tuple(head)] >= reward[tuple(tail)])
                              & (length[tuple(head)] <= length[tuple(tail)]))
    rows = np.broadcast_to(np.arange(drop[..., 0].size)[:, None], (drop[..., 0].size, nd))
    valid, pos, r, l = _compact(~drop.reshape(-1, nd), rows, reward.reshape(-1, nd),
                                length.reshape(-1, nd))
    r[~valid], l[~valid] = -np.inf, np.inf
    with np.errstate(invalid="ignore"):  # the margins of the padding are NaN
        outclassed = _outclassed(r, l)
    valid, pos, r, l = _compact(valid & ~outclassed, pos, r, l)
    r[~valid] = -np.inf
    return pos, r, l


def _dinkelbach(ev: _Evaluator, base, lattice, fronts, policy_class):
    """Per-node tuples over `lattice` on the evaluator's node grid by Dinkelbach,
    from the incumbent `base`: lambda <- E[R]/E[L] at the per-node argmax of
    R - lambda L, one tuple search per node; lambda never decreases.

    fronts[a] holds the candidates of alpha block a (see _front), which hold
    for lam >= 0 only: a lam < 0 (a negative throughput) raises NumericalError.
    """
    r1_axis, r2_axis, alpha_axis = lattice
    grid = ev.grid
    nd = len(grid.nodes)
    cols = np.arange(nd)
    r1n = np.full(nd, float(base.policy.r1))
    r2n = np.full(nd, float(base.policy.r2))
    an = np.full(nd, float(base.policy.alpha))

    reward_inc, length_inc = node_reward_length(ev.cfg, r1n, r2n, an, grid, ev.comp)
    lam = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
    trajectory = [lam]
    converged = False

    for _ in range(_MAX_ITER):
        if not lam >= 0:
            raise NumericalError(f"per-node search needs throughput lambda >= 0, got {lam!r}")
        best_score = reward_inc - lam * length_inc  # incumbent always a candidate
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha, (pos, reward, length) in zip(alpha_axis, fronts):
            score = reward - lam * length
            pick = np.argmax(score, axis=0)
            top = score[pick, cols]
            gain = top > best_score + 1e-15
            if np.any(gain):
                i, j = np.divmod(pos[pick[gain], cols[gain]], len(r2_axis))
                new_r1[gain] = r1_axis[i]
                new_r2[gain] = r2_axis[j]
                new_a[gain] = alpha
                best_score = np.where(gain, top, best_score)
        r1n, r2n, an = new_r1, new_r2, new_a
        reward_inc, length_inc = node_reward_length(ev.cfg, r1n, r2n, an, grid, ev.comp)
        lam_new = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
        if lam_new < lam - 1e-12:
            raise NumericalError(
                f"fractional-programming iterate decreased: {lam!r} -> {lam_new!r}")
        trajectory.append(lam_new)
        if abs(lam_new - lam) < _TOL:
            lam = lam_new
            converged = True
            break
        lam = lam_new

    return OptimizationResult(
        policy=RatePolicy.per_node(r1n, r2n, an), eta=lam, backend="analytic",
        metadata={"policy_class": policy_class, "n_nodes": nd,
                  "lambda_trajectory": trajectory, "converged": converged,
                  "iterations": len(trajectory) - 1,
                  "warning": None if converged else "fractional programming hit max_iter",
                  "seed_eta": base.eta})


def _optimize(ev: _Evaluator, classes, grid_spec: GridSpec = GridSpec()) -> dict:
    """The optima of the requested policy classes from one pass; see the module docstring.

    ev evaluates the scenario; classes names some of CLASSES: "sl", "bc"
    (single-layer and two-layer tuples) and "sl-lcsit", "bc-lcsit" (their
    per-node tables); the result maps each to its OptimizationResult.
    """
    if not set(classes) <= set(CLASSES):
        raise ValueError(f"unknown policy classes in {classes!r}; expected some of {CLASSES}")
    per_node = [c for c in ("bc-lcsit", "sl-lcsit") if c in classes]
    if per_node:
        check_supported(ev.cfg, ev.comp, ev.backend, per_node=True)
    r_axis = grid_spec.r_axis()
    lattices = {"sl": (r_axis, np.array([0.0]), np.array([1.0])),
                "bc": (r_axis, r_axis, grid_spec.alpha_axis())}
    fronts = {c[:2]: [] for c in per_node}  # the scan's blocks are the per-node blocks

    out = {}
    best = _scan(ev, *lattices["sl"], fronts=fronts.get("sl"))
    best = _refine(ev, grid_spec, best, frozen_r2=0.0, frozen_alpha=1.0)
    out["sl"] = _result(ev, best, {"policy_class": "single_layer",
                                   "grid": (grid_spec.r_max, grid_spec.r_step)}, ev.n_evals)
    if "bc" in classes or "bc-lcsit" in classes:
        seed, n_sl = best, ev.n_evals
        best = _scan(ev, *lattices["bc"], best=seed, fronts=fronts.get("bc"))
        best = _refine(ev, grid_spec, best)
        out["bc"] = _result(ev, best, {
            "policy_class": "no_lcsit",
            "grid": (grid_spec.r_max, grid_spec.r_step, grid_spec.alpha_step),
            "single_layer_seed": seed}, ev.n_evals - n_sl)
    for cls in per_node:
        kind = cls[:2]
        out[cls] = _dinkelbach(ev, out[kind], lattices[kind], fronts[kind],
                               "lcsit" if kind == "bc" else "lcsit_single_layer")
    return {c: out[c] for c in classes}


def optima(cfg: SystemConfig, classes, comp=CompressionPolicy("constant"),
           backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
           quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None) -> dict:
    """The optima of the policy classes `classes` (some of CLASSES) from one pass,
    as {class: OptimizationResult}: the optimizing twin of `throughput`.

    "sl" is the best tuple (R1, 0, 1) and "bc" the best (R1, R2, alpha), never
    worse; "sl-lcsit" and "bc-lcsit" are their per-node tables on the quad_n
    node grid (Dinkelbach from those tuples; backend "analytic" only).  mc
    takes the keywords of `estimate`.
    """
    return _optimize(_Evaluator(cfg, comp, backend, quad_n, mc), classes, grid_spec)


def optimize_no_lcsit(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                      backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                      quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                      ) -> OptimizationResult:
    """optima's "bc"."""
    return optima(cfg, ["bc"], comp, backend, grid_spec, quad_n, mc)["bc"]


def optimize_lcsit(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                   grid_spec: GridSpec = GridSpec(), n_nodes: int | None = None,
                   quad_n: int = DEFAULT_QUAD_N) -> OptimizationResult:
    """optima's "bc-lcsit".  n_nodes, when given, is the node grid, which is the
    quadrature grid: it replaces quad_n.  The view is kept for
    `perfbench/baselines.py`."""
    return optima(cfg, ["bc-lcsit"], comp, grid_spec=grid_spec,
                  quad_n=n_nodes or quad_n)["bc-lcsit"]
