"""Closed-form throughput at one policy (`throughput`, the analytic twin of
`simulate.estimate`) and its maximization over the coding tuple (R1, R2, alpha).

Search strategy: exhaustive coarse grid, then local refinement with halved
steps around the incumbent (a deliberate, reproducible substitution for
branch-and-bound), plus Dinkelbach fractional programming for the per-node
policies.  Dominance between nested policy classes is made structural by
seeding each richer search with the best tuple of the poorer one: the
two-layer search starts from the single-layer incumbent, the per-node search
starts from the single-tuple incumbent, so the expected orderings hold by
construction and not merely by grid luck.

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
the per-node policy grid, so the scan keeps the front of each block it forms.
A block whose front stays large, and every block while lambda < 0, is formed
in full again the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig, check_supported
from .config import GridSpec
from .fading import DEFAULT_QUAD_N, quantize
from .ltsc import decode_table, node_reward_length, node_tables
from .simulate import estimate
from .stsc import quantity_tables, slot1_grid, stsc_quantities
from .tables import NumericalError, ProbabilityTable, ThroughputReport, reward_length

_MARGIN = 8 * np.finfo(float).eps  # 16 unit roundoffs, see _front
_PAIR_CELLS = 16  # the pairwise test of _front holds at most 16 bools per block cell
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
    over a (r1, r2) block at fixed alpha (`block`, the optimizer's scan), or eta
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

    def block(self, r1v: np.ndarray, r2v: np.ndarray, alpha: float):
        """Per-node (reward, length, weights) over the block: E[R|d] and E[L|d]
        shaped (q1, q2, nd), the node weights (nd,); eta is their weighted ratio.

        LTSC is read on the evaluator's D node grid; the STSC quantities and a
        Monte Carlo eta (with length 1) are one node of weight 1.
        """
        self.n_evals += len(r1v) * len(r2v)
        if self.backend == "mc":
            # common random numbers: every tuple sees the same seed
            eta = [[self.report(RatePolicy.constant(r1, r2, alpha)).eta for r2 in r2v]
                   for r1 in r1v]
            return np.array(eta)[..., None], np.ones((len(r1v), len(r2v), 1)), np.ones(1)
        if self.cfg.channel_regime == "ltsc":
            reward, length = node_reward_length(
                self.cfg, r1v[:, None, None], r2v[None, :, None], np.float64(alpha), self.grid,
                self.comp,
            )
            return reward, length, self.grid.weights
        q = stsc_quantities(self.cfg, r1v, r2v, alpha, self.quad_n, grid=self.grid)
        reward, length = reward_length(r1v[:, None], r2v[None, :], *quantity_tables(q)[:2])
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
    """Best (eta, alpha, r1, r2) over the lattice; appends each block's _front to fronts."""
    for alpha in alpha_axis:
        reward, length, weights = ev.block(r1_axis, r2_axis, float(alpha))
        if fronts is not None:
            fronts.append(_front(reward, length))
        eta = (reward @ weights) / (length @ weights)
        flat = int(np.argmax(eta))  # first max: lexicographic-min (r1, r2)
        i, j = divmod(flat, eta.shape[1])
        cand = (float(eta[i, j]), float(alpha), float(r1_axis[i]), float(r2_axis[j]))
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
    sort, and the first again over every pair of what is left.  Returns (pos,
    reward, length), each (m, nd), pos the lattice row, padded with reward
    -inf and length 0; or None when the m rows left for the pairwise test
    have m^2 > _PAIR_CELLS q1 q2.
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
    if len(valid) ** 2 > _PAIR_CELLS * len(rows):
        return None
    first = np.tri(len(valid), k=-1, dtype=bool)[:, :, None]  # [p, q]: q before p
    covered = (r[None] >= r[:, None]) & (l[None] <= l[:, None]) & first & valid[None]
    valid, pos, r, l = _compact(valid & ~covered.any(axis=1), pos, r, l)
    r[~valid] = -np.inf
    return pos, r, l


def _dinkelbach(ev: _Evaluator, base, lattice, fronts, policy_class):
    """Per-node tuples over `lattice` on the evaluator's node grid by Dinkelbach,
    from the incumbent `base`: lambda <- E[R]/E[L] at the per-node argmax of
    R - lambda L, one tuple search per node; lambda never decreases.

    fronts[a] holds the candidates of alpha block a (see _front); a block
    without one, and every block while lam < 0, is formed in full again.
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
        best_score = reward_inc - lam * length_inc  # incumbent always a candidate
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha, front in zip(alpha_axis, fronts):
            if front is None or not lam >= 0:
                pos = None
                reward, length = (x.reshape(-1, nd)
                                  for x in ev.block(r1_axis, r2_axis, alpha)[:2])
            else:
                pos, reward, length = front
            score = reward - lam * length
            pick = np.argmax(score, axis=0)
            top = score[pick, cols]
            gain = top > best_score + 1e-15
            if np.any(gain):
                rows = pick[gain] if pos is None else pos[pick[gain], cols[gain]]
                i, j = np.divmod(rows, len(r2_axis))
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
