"""Throughput maximization over the coding tuple (R1, R2, alpha).

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

One pass serves every policy class (`_optimize`; the `optimize_*` functions
are views of it).  The single-layer slice (r2 = 0, alpha = 1) is scanned and
refined once and seeds the rest; the two-layer lattice is streamed by alpha
once and refined once; Dinkelbach then runs for the per-node classes from
those incumbents.  Its per-node values E[R|d], E[L|d] do not depend on
lambda, so each alpha block is reduced once to a per-node front: the rows
that can be the first argmax of R - lambda L for some lambda >= 0 after
rounding (`_front`: a row goes when an earlier row is at least as good in
both R and L, or any row is better in both by 16 unit roundoffs).  Dinkelbach
takes np.argmax over each front in lattice order, so every pick, tie, lambda
and iteration count is the one a full-lattice scan gives.  When n_nodes ==
quad_n the fronts come from the scan's own blocks; otherwise the node grid is
evaluated once, one block at a time.  A block whose front stays large, and
every block while lambda < 0, is evaluated in full again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig, check_supported
from .fading import quantize
from .ltsc import node_reward_length, throughput_ltsc
from .simulate import estimate
from .stsc import stsc_quantities, throughput_stsc
from .tables import NumericalError

DEFAULT_QUAD_N = 64
_MARGIN = 8 * np.finfo(float).eps  # 16 unit roundoffs, see _front
_PAIR_CELLS = 16  # the pairwise test of _front holds at most 16 bools per block cell


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: rates on [0, r_max] and alpha on [0, 1]."""

    r_max: float = 6.0
    r_step: float = 0.05
    alpha_step: float = 0.02
    refine_rounds: int = 3

    def __post_init__(self):
        if self.r_max < 0 or self.r_step <= 0 or not 0 < self.alpha_step <= 1:
            raise ValueError("empty search grid")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")

    def r_axis(self) -> np.ndarray:
        return _axis(0.0, self.r_max, self.r_step)

    def alpha_axis(self) -> np.ndarray:
        return _axis(0.0, 1.0, self.alpha_step)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


@dataclass(frozen=True)
class OptimizationResult:
    policy: RatePolicy
    eta: float
    backend: str
    metadata: dict = field(default_factory=dict)


class _Evaluator:
    """eta of one scenario by regime and backend: over a (r1, r2) block at fixed
    alpha (the optimizer's scan), or at one policy with its table (`report`)."""

    def __init__(self, cfg, comp, backend, quad_n, mc, per_node=False):
        check_supported(cfg, comp, backend, per_node)
        self.cfg, self.comp, self.backend = cfg, comp, backend
        self.quad_n = quad_n
        self.mc = {"sessions": 20_000, "seed": 0, "batch_size": 1 << 16, "workers": 1,
                   **(mc or {})}
        ltsc_closed_form = backend == "analytic" and cfg.channel_regime == "ltsc"
        self.grid = quantize(cfg.model_d, quad_n) if ltsc_closed_form else None
        self.n_evals = 0

    def block(self, r1v: np.ndarray, r2v: np.ndarray, alpha: float, visit=None) -> np.ndarray:
        """eta over the block; visit(reward, length) sees the LTSC per-node values."""
        self.n_evals += len(r1v) * len(r2v)
        if self.backend == "mc":
            out = np.empty((len(r1v), len(r2v)))
            for i, r1 in enumerate(r1v):
                for j, r2 in enumerate(r2v):
                    # common random numbers: every tuple sees the same seed
                    out[i, j] = estimate(
                        self.cfg, RatePolicy.constant(r1, r2, alpha), self.comp,
                        self.mc["sessions"], self.mc["seed"],
                        self.mc["batch_size"], self.mc["workers"],
                    ).eta
            return out
        if self.cfg.channel_regime == "ltsc":
            reward, length = node_reward_length(
                self.cfg, r1v[:, None, None], r2v[None, :, None], np.float64(alpha),
                self.grid, self.comp,
            )
            if visit is not None:
                visit(reward, length)
            return (reward @ self.grid.weights) / (length @ self.grid.weights)
        # chunk r1 so stsc_quantities' (q1, nd, ns) arrays stay bounded
        rows = max(1, int(24_000_000 // max(1, len(r2v) * self.quad_n**2)))
        out = np.empty((len(r1v), len(r2v)))
        for i in range(0, len(r1v), rows):
            r1c = r1v[i : i + rows]
            q = stsc_quantities(self.cfg, r1c, r2v, alpha, n=self.quad_n)
            er = r1c[:, None] * (1 - q["p1_out_2"]) + r2v[None, :] * (1 - q["p2_out_2"])
            out[i : i + rows] = er / (2.0 - q["p2_dec_1"])
        return out

    def report(self, policy: RatePolicy):
        """eta, expected_reward, expected_length and table at one policy.

        A per-node policy is read on its own node grid, one node per tuple.
        """
        if self.backend == "mc":
            return estimate(self.cfg, policy, self.comp, self.mc["sessions"],
                            self.mc["seed"], self.mc["batch_size"], self.mc["workers"])
        if self.cfg.channel_regime == "ltsc":
            grid = self.grid if policy.mode == "no_lcsit" else quantize(self.cfg.model_d,
                                                                        policy.r1.size)
            return throughput_ltsc(self.cfg, policy, self.comp, grid=grid)
        return throughput_stsc(self.cfg, policy, n=self.quad_n)


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


def _scan(ev: _Evaluator, r1_axis, r2_axis, alpha_axis, best=None, visit=None):
    for alpha in alpha_axis:
        eta = ev.block(r1_axis, r2_axis, float(alpha), visit)
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


def _node_block(node_rl, lattice, alpha):
    """Per-node (E[R|d], E[L|d]) over the (r1, r2) lattice at alpha, shaped (q1, q2, nd)."""
    r1_axis, r2_axis, _ = lattice
    return node_rl(r1_axis[:, None, None], r2_axis[None, :, None], np.float64(alpha))


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


def _dinkelbach(node_rl, grid, base, lattice, fronts, tol, max_iter, policy_class):
    """Per-node tuples over `lattice` by Dinkelbach, from the incumbent `base`.

    fronts[a] holds the candidates of alpha block a (see _front); a block
    without one, and every block while lam < 0, is evaluated in full again.
    """
    r1_axis, r2_axis, alpha_axis = lattice
    nd = len(grid.nodes)
    cols = np.arange(nd)
    r1n = np.full(nd, float(base.policy.r1))
    r2n = np.full(nd, float(base.policy.r2))
    an = np.full(nd, float(base.policy.alpha))

    reward_inc, length_inc = node_rl(r1n, r2n, an)
    lam = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
    trajectory = [lam]
    converged = False

    for _ in range(max_iter):
        best_score = reward_inc - lam * length_inc  # incumbent always a candidate
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha, front in zip(alpha_axis, fronts):
            if front is None or not lam >= 0:
                pos = None
                reward, length = (x.reshape(-1, nd) for x in _node_block(node_rl, lattice, alpha))
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
        reward_inc, length_inc = node_rl(r1n, r2n, an)
        lam_new = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
        if lam_new < lam - 1e-12:
            raise NumericalError(
                f"fractional-programming iterate decreased: {lam!r} -> {lam_new!r}")
        trajectory.append(lam_new)
        if abs(lam_new - lam) < tol:
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


def _optimize(cfg: SystemConfig, comp: CompressionPolicy, classes, backend: str = "analytic",
              grid_spec: GridSpec = GridSpec(), quad_n: int = DEFAULT_QUAD_N,
              mc: dict | None = None, n_nodes: int | None = None,
              tol: float = 1e-6, max_iter: int = 50) -> dict:
    """The optima of the requested policy classes from one pass; see the module docstring.

    classes names some of "sl", "bc" (single-layer and two-layer tuples) and
    "sl-lcsit", "bc-lcsit" (their per-node tables); the result maps each to
    its OptimizationResult.
    """
    per_node = [c for c in ("bc-lcsit", "sl-lcsit") if c in classes]
    nd = n_nodes if n_nodes is not None else quad_n
    if per_node and nd < 1:
        raise ValueError("n_nodes must be >= 1")
    ev = _Evaluator(cfg, comp, backend, quad_n, mc, per_node=bool(per_node))
    r_axis = grid_spec.r_axis()
    lattices = {"sl": (r_axis, np.array([0.0]), np.array([1.0])),
                "bc": (r_axis, r_axis, grid_spec.alpha_axis())}
    fronts = {c[:2]: [] for c in per_node}
    share = nd == quad_n  # the scan's blocks are then the per-node blocks

    def visit(kind):
        if not (share and kind in fronts):
            return None
        return lambda reward, length: fronts[kind].append(_front(reward, length))

    out = {}
    best = _scan(ev, *lattices["sl"], visit=visit("sl"))
    best = _refine(ev, grid_spec, best, frozen_r2=0.0, frozen_alpha=1.0)
    out["sl"] = _result(ev, best, {"policy_class": "single_layer",
                                   "grid": (grid_spec.r_max, grid_spec.r_step)}, ev.n_evals)
    if "bc" in classes or "bc-lcsit" in classes:
        seed, n_sl = best, ev.n_evals
        best = _scan(ev, *lattices["bc"], best=seed, visit=visit("bc"))
        best = _refine(ev, grid_spec, best)
        out["bc"] = _result(ev, best, {
            "policy_class": "no_lcsit",
            "grid": (grid_spec.r_max, grid_spec.r_step, grid_spec.alpha_step),
            "single_layer_seed": seed}, ev.n_evals - n_sl)
    if per_node:
        grid = ev.grid if share else quantize(cfg.model_d, nd)

        def node_rl(r1, r2, alpha):
            return node_reward_length(cfg, r1, r2, alpha, grid, comp)

    for cls in per_node:
        kind = cls[:2]
        if not share:  # one node-grid block at a time, as the scan holds one
            fronts[kind] = [_front(*_node_block(node_rl, lattices[kind], a))
                            for a in lattices[kind][2]]
        out[cls] = _dinkelbach(node_rl, grid, out[kind], lattices[kind], fronts[kind], tol,
                               max_iter, "lcsit" if kind == "bc" else "lcsit_single_layer")
    return {c: out[c] for c in classes}


def optimize_single_layer(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                          backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                          quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                          ) -> OptimizationResult:
    """Best single-message benchmark: maximize eta(R1, 0, 1) over R1."""
    return _optimize(cfg, comp, ["sl"], backend, grid_spec, quad_n, mc)["sl"]


def optimize_no_lcsit(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                      backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                      quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                      ) -> OptimizationResult:
    """Best fixed tuple (R1, R2, alpha); never worse than the single-layer slice."""
    return _optimize(cfg, comp, ["bc"], backend, grid_spec, quad_n, mc)["bc"]


def optimize_lcsit(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                   backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                   n_nodes: int | None = None, quad_n: int = DEFAULT_QUAD_N,
                   mc: dict | None = None, single_layer: bool = False,
                   tol: float = 1e-6, max_iter: int = 50) -> OptimizationResult:
    """Per-node tuples R1(d), R2(d), alpha(d) by Dinkelbach fractional programming.

    eta = E_D[R(theta(d))]/E_D[L(theta(d))] is maximized by iterating
    lambda <- E[R]/E[L] at the per-node argmax of R - lambda L, which separates
    into one independent tuple search per quadrature node.  The lambda sequence
    is nondecreasing; it starts at the single-tuple incumbent (evaluated on the
    same node grid when n_nodes is left at quad_n), so the richer class can
    only improve on it.  single_layer restricts the per-node tuples to the
    (R1(d), 0, 1) slice.
    """
    cls = "sl-lcsit" if single_layer else "bc-lcsit"
    return _optimize(cfg, comp, [cls], backend, grid_spec, quad_n, mc, n_nodes,
                     tol, max_iter)[cls]
