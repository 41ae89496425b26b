"""Closed-form throughput at one policy (`throughput`, the analytic twin of
`simulate.estimate`) and its maximization over the coding tuple (R1, R2, alpha).

Search strategy: a coarse grid, then local refinement with halved steps around
the incumbent, plus Dinkelbach fractional programming for the per-node
policies.  The evaluator (`_Ltsc`, `_Stsc` or `_MonteCarlo`) forms an alpha
block in two steps: the r1 side of each pass of r1 rows (`sides`), each row's
per-node p1_out(k), then the cells of the rows `_scan` keeps (`block`).
In between, one row bound serves two prune rules (`_row_bound`): at node d
and lambda >= 0 every cell of the row has R - lambda L <= B_d - lambda Lb_d.
Once a scan has an incumbent, a row whose bound on eta is below it can
neither win nor tie (`_reaches`): a branch-and-bound over rows in the manner
of Land and Doig.  A scan that keeps per-node fronts drops a row only when,
besides, at every node a line of an earlier block's front beats its bound
line by the margin at lambda = 0 and at the largest lambda Dinkelbach can
reach (`_beaten`): its cells then stay below best_score + 1e-15 wherever
Dinkelbach's cross-block rule, `top > best_score + 1e-15`, reads them, so no
pick, lambda or iteration count moves (`_scan` gives the argument in full).
The Monte Carlo backend forms every cell.  Dominance between
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
per-node (E[R], E[L]), weighted by `_Evaluator.weights`, on the quad_n
quadrature grid, which is also the per-node policy grid, so the scan keeps
the front of each block it forms and `_scan` is the only code that forms a
block.  The fronts hold for lambda >= 0 only; lambda < 0 is a negative
throughput and raises NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig, check_supported
from .config import GridSpec
from .fading import DEFAULT_QUAD_N
from .ltsc import decode_table, layer1_side, node_grid, node_tables
from .simulate import estimate
from .stsc import r1_passes, r1_side, side_quantities, slot1_grid
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
    """One scenario: per-node E[R], E[L] and node weights over a (r1, r2) block
    at fixed alpha (`sides`, then `block`: the scan), or eta and the table at
    one policy (`report`).  Constructing one checks support and picks the class
    by regime and backend, the one place that does: `_Ltsc`, `_Stsc` or
    `_MonteCarlo`.  sides(r1v, alpha) yields per pass of r1 rows (side, p1),
    side the pass's (r1, alpha, what block reads) and p1 their per-node
    p1_out(k|d), (rows, nodes, T); block(side, r2v, rows) gives E[R|d], E[L|d]
    (len(rows), q2, nd) of those rows, each row's bits as in the whole block,
    eta their ratio weighted by weights (nd,).  `_grid` builds once what the
    blocks share and gives the weights.  mc holds `estimate`'s keywords, passed
    as given; `report` gives a ThroughputReport for every backend.
    """

    def __new__(cls, cfg, comp, backend, quad_n, mc=None):
        check_supported(cfg, comp, backend)
        if cls is _Evaluator:
            cls = (_MonteCarlo if backend == "mc"
                   else _Ltsc if cfg.channel_regime == "ltsc" else _Stsc)
        return super().__new__(cls)

    def __init__(self, cfg, comp, backend, quad_n, mc=None):
        self.cfg, self.comp, self.backend, self.quad_n = cfg, comp, backend, quad_n
        self.mc = mc or {}
        self.grid, self.weights = self._grid()
        self.n_evals = 0

    def report(self, policy: RatePolicy):
        """eta, E[R], E[L] and table at one policy, from the closed form's `_tables`."""
        check_supported(self.cfg, self.comp, per_node=policy.mode == "lcsit")
        tables, weights = self._tables(policy)
        er, el = (float(v @ weights) for v in reward_length(policy.r1, policy.r2, *tables[:2]))
        table = ProbabilityTable(*(np.einsum("i,...ik->...k", weights, t) for t in tables))
        return ThroughputReport(eta=er / el, expected_reward=er, expected_length=el, table=table)


class _Ltsc(_Evaluator):
    """The LTSC closed form on the D node grid (`ltsc.node_grid`) and its weights."""

    def _grid(self):
        grid = node_grid(self.cfg, self.quad_n)
        return grid, grid.weights

    def sides(self, r1v: np.ndarray, alpha: float):
        """node_tables' prefix (`layer1_side`), one pass."""
        x, Fx = layer1_side(self.cfg, r1v[:, None, None], alpha, self.grid)
        yield (r1v, alpha, (x, Fx)), np.stack([v[:, 0] for v in Fx], axis=-1)

    def block(self, side, r2v: np.ndarray, rows: np.ndarray):
        r1v, alpha, part = side
        part = tuple([v[rows] for v in values] for values in part)  # x and F(x) per row
        return self.per_node(r1v[rows][:, None, None], r2v[None, :, None], alpha, part)

    def per_node(self, r1, r2, alpha, side=None):
        """E[R|d], E[L|d] on the node grid, arguments as node_tables' (`block`, `_dinkelbach`)."""
        tables = node_tables(self.cfg, r1, r2, alpha, self.grid, self.comp, side)
        return reward_length(r1, r2, *tables)

    def _tables(self, policy: RatePolicy):
        """A per-node policy is read on its own node grid: the evaluator's at quad_n tuples."""
        same = policy.mode == "no_lcsit" or policy.r1.size == self.quad_n
        grid = self.grid if same else node_grid(self.cfg, policy.r1.size)
        p1, p2o = node_tables(self.cfg, policy.r1, policy.r2, policy.alpha, grid, self.comp)
        return (p1, p2o, decode_table(p2o)), grid.weights


class _Stsc(_Evaluator):
    """The STSC closed form (T = 2) on the slot-1 grid (`stsc.slot1_grid`), one node."""

    def _grid(self):
        return slot1_grid(self.cfg, self.quad_n), np.ones(1)

    def sides(self, r1v: np.ndarray, alpha: float):
        """The r1 side of each `r1_passes` pass."""
        for r1 in r1_passes(r1v, self.quad_n):
            side = r1_side(self.cfg, r1, alpha, self.grid)
            yield (r1, alpha, side), side.p1_out[:, None]
            del side

    def block(self, side, r2v: np.ndarray, rows: np.ndarray):
        r1v, alpha, part = side
        tables = side_quantities(self.cfg, part, r2v, alpha, self.grid, rows)
        return reward_length(r1v[rows][:, None, None], r2v[None, :, None], *tables[:2])

    def _tables(self, policy: RatePolicy):
        """One tuple is one pass: slot1_grid refuses an n whose pass holds no row."""
        r1, r2, alpha = np.atleast_1d(policy.r1), np.atleast_1d(policy.r2), float(policy.alpha)
        side = r1_side(self.cfg, r1, alpha, self.grid)
        tables = side_quantities(self.cfg, side, r2, alpha, self.grid)
        return tuple(t[0, 0] for t in tables), self.weights


class _MonteCarlo(_Evaluator):
    """The simulator (`estimate`) at the budget mc, one node: eta with length 1."""

    def _grid(self):
        return None, np.ones(1)

    def sides(self, r1v: np.ndarray, alpha: float):
        yield (r1v, alpha, None), np.full((len(r1v), 1, 1), np.nan)  # NaN keeps every row

    def block(self, side, r2v: np.ndarray, rows: np.ndarray):
        r1v, alpha, _ = side
        # common random numbers: every tuple sees the same seed
        eta = [[self.report(RatePolicy.constant(x, y, alpha)).eta for y in r2v] for x in r1v[rows]]
        return np.array(eta)[..., None], np.ones((len(rows), len(r2v), 1))

    def report(self, policy: RatePolicy):
        return estimate(self.cfg, policy, self.comp, **self.mc)


def throughput(cfg: SystemConfig, policy: RatePolicy, comp=CompressionPolicy(),
               quad_n: int = DEFAULT_QUAD_N) -> ThroughputReport:
    """Closed-form eta = E[R]/E[L], E[R], E[L] and table at one policy, either regime;
    a per-node (LTSC) policy is read on its own node grid, one node per tuple."""
    return _Evaluator(cfg, comp, "analytic", quad_n).report(policy)


def _row_bound(r1, r2v, p1):
    """Each row's bound line B - lam Lb on R - lam L at every node, lam >= 0:
    (B, Lb), each (rows, nodes), from the rows' r1 and per-node p1_out(k) (`sides`).

    p2_out(k) >= p1_out(k) elementwise (node_tables adds nonnegative terms to
    p1; in STSC layer 2 is out at slot 1 wherever layer 1 is), so
    E[R|d] = r1 (1 - p1_out(T)) + r2 (1 - p2_out(T)) <= (r1 + max r2)(1 - p1_out(T|d)) = B
    and E[L|d] = 1 + sum_{k<T} p2_out(k) >= 1 + sum_{k<T} p1_out(k|d) = Lb >= 1.
    A NaN p1_out gives a NaN bound, which no prune rule drops.
    """
    B = (r1 + r2v.max())[:, None] * (1.0 - p1[..., -1])
    return B, 1.0 + p1[..., :-1].sum(axis=-1)


def _slack(B, Lb, lam):
    """The margin of a bound line at lam: 1e-9 (|B| + lam Lb) + 1e-12, far above
    the rounding of R - lam L at either side (a few ulps of |R| + lam L), the
    probabilities that miss [0, 1] by a few ulps, and Dinkelbach's 1e-15."""
    return 1e-9 * (np.abs(B) + lam * Lb) + 1e-12


def _reaches(bound, weights, floor):
    """The rows whose bound on eta, with its margin, is not below floor (NaN included).

    eta = sum_d w_d E[R|d] / sum_d w_d E[L|d] <= sum_d w_d B_d / sum_d w_d Lb_d
    (`_row_bound`): a ratio, whatever the node weights sum to.  A row that
    fails holds only cells strictly below floor, the incumbent's eta: it
    can neither win nor tie under `_better`.  In a scan that keeps fronts
    this alone drops no row: the row's cells may still be a node's pick of
    R - lambda L, which `_beaten` rules out (see `_scan`).
    """
    B, Lb = bound
    B, Lb = B @ weights, Lb @ weights
    return ~(B / Lb + _slack(B, Lb, 0.0) < floor)


def _beaten(lines, bound, lam_hi):
    """The rows whose bound line lies, at every node, below some staircase line
    by the margin at both lam = 0 and lam_hi, so at every lam in [0, lam_hi]:
    lines are (R, R - lam_hi L) per node (`_staircase`); a NaN bound is never
    beaten."""
    B, Lb = bound
    at_0 = (B + _slack(B, Lb, 0.0))[:, None]
    at_hi = (B - lam_hi * Lb + _slack(B, Lb, lam_hi))[:, None]
    return ((lines[0] > at_0) & (lines[1] > at_hi)).any(axis=1).all(axis=1)


def _staircase(lines, reward, length, lam_hi):
    """The lines of a front (m, nd) added to the staircase `lines` (None when
    empty): per node, each line as (R, R - lam_hi L), keeping those that no
    other line matches or beats at both ends, by R descending, padded with
    -inf.  A node where the front holds a non-finite value adds no line there:
    Dinkelbach's argmax over that block may be NaN, which raises no score."""
    ends = np.stack((reward, reward - lam_hi * length))
    ends[..., ~(np.isfinite(length) & (reward < np.inf)).all(axis=0)] = -np.inf
    if lines is not None:
        ends = np.concatenate((lines, ends), axis=1)
    order = np.argsort(-ends[0], axis=0, kind="stable")
    v0, v1 = (np.take_along_axis(v, order, 0) for v in ends)
    keep = v1 > -np.inf
    keep[1:] &= v1[1:] > np.maximum.accumulate(v1, axis=0)[:-1]
    valid, v0, v1 = _compact(keep, v0, v1)
    out = np.stack((v0, v1))
    out[:, ~valid] = -np.inf
    return out


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
    """Best (eta, alpha, r1, r2) over the lattice; appends each formed block's
    (alpha, pos, reward, length) to fronts (see _front), pos the lattice row.

    The one row rule: each pass of `_Evaluator.sides` gives every r1 row's
    bound (`_row_bound`), and a row is formed unless both prune rules drop it.
    The single-tuple rule, once there is an incumbent, drops a row whose bound
    on eta is below it (`_reaches`): its cells lie strictly below the
    incumbent, so the first argmax over the kept rows, in lattice order, is
    the one over the block whenever it can win, and every pick, tie and refine
    round is the full lattice's.  Without fronts that rule alone decides.

    A scan that keeps fronts also keeps a row that the per-node rule keeps: it
    drops a row only when, at every node, a line of an earlier block's front
    beats its bound line by the margin at both lam = 0 and lam_hi = max r1 +
    max r2 (`_beaten`, against the `_staircase` of those fronts), and so at
    every lam Dinkelbach visits (0 <= lam <= lam_hi, as E[R|d] <= r1 + r2
    and E[L|d] >= 1).  No Dinkelbach pick moves.  Within an iteration a node's
    best_score never falls, and after the block of that line it is at least
    the line's score less 1e-15: the front's argmax is at least the line's
    score, and `top > best_score + 1e-15` either takes it or finds best_score
    within 1e-15 of it (a block whose front holds a NaN at the node adds no
    line there, as its argmax there is NaN).  So in the full lattice the
    dropped row's cells, below the line's score by more than the margin
    (1e-12 at least), are below best_score + 1e-15 at the later block: when
    one of them is that block's first argmax, no kept row's cell exceeds it
    and neither block gains; otherwise the first argmax and its top are a kept
    row's in both.  Fronts are formed by `_front` over the kept rows, so they
    hold the first argmax over those rows at every lam >= 0.
    """
    lam_hi = r1_axis.max() + r2_axis.max()
    lines = None  # the staircase of this scan's fronts so far
    for alpha in alpha_axis:
        ev.n_evals += len(r1_axis) * len(r2_axis)
        floor = -np.inf if best is None else best[0]
        kept, start = [], 0  # (lattice row, r1, reward, length) of each pass's kept rows
        for side, p1 in ev.sides(r1_axis, float(alpha)):
            bound = _row_bound(side[0], r2_axis, p1)
            keep = _reaches(bound, ev.weights, floor)
            if lines is not None:
                keep |= ~_beaten(lines, bound, lam_hi)
            rows = np.flatnonzero(keep)
            if len(rows):
                kept.append((start + rows, side[0][rows], *ev.block(side, r2_axis, rows)))
            start += len(side[0])
            del side  # one pass's side at a time
        if not kept:  # every row left out
            continue
        # one argmax over all passes: per-pass picks merged by _better miss a later NaN eta
        lattice_rows, r1, reward, length = (v[0] if len(kept) == 1 else np.concatenate(v)
                                            for v in zip(*kept))
        if fronts is not None:
            pos, front_r, front_l = _front(reward, length)
            i, j = np.divmod(pos, len(r2_axis))
            fronts.append((float(alpha), lattice_rows[i] * len(r2_axis) + j, front_r, front_l))
            lines = _staircase(lines, front_r, front_l, lam_hi)
        eta = (reward @ ev.weights) / (length @ ev.weights)
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


def _dinkelbach(ev: _Ltsc, base, lattice, fronts, policy_class):
    """Per-node tuples over `lattice` on the evaluator's node grid by Dinkelbach,
    from the incumbent `base`: lambda <- E[R]/E[L] at the per-node argmax of
    R - lambda L, one tuple search per node; lambda never decreases.

    fronts holds (alpha, pos, reward, length) of each block the scan formed,
    in alpha order: its candidates (see _front, and `_scan` for the rows it
    left out), which hold for lam >= 0 only: a lam < 0 (a negative throughput)
    raises NumericalError.
    """
    r1_axis, r2_axis = lattice[:2]
    w = ev.weights
    nd = len(w)
    cols = np.arange(nd)
    r1n = np.full(nd, float(base.policy.r1))
    r2n = np.full(nd, float(base.policy.r2))
    an = np.full(nd, float(base.policy.alpha))

    reward_inc, length_inc = ev.per_node(r1n, r2n, an)
    lam = float((reward_inc @ w) / (length_inc @ w))
    trajectory = [lam]
    converged = False

    for _ in range(_MAX_ITER):
        if not lam >= 0:
            raise NumericalError(f"per-node search needs throughput lambda >= 0, got {lam!r}")
        best_score = reward_inc - lam * length_inc  # incumbent always a candidate
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha, pos, reward, length in fronts:
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
        reward_inc, length_inc = ev.per_node(r1n, r2n, an)
        lam_new = float((reward_inc @ w) / (length_inc @ w))
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


def _optimize(ev: _Evaluator, classes, grid_spec: GridSpec) -> dict:
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


def optima(cfg: SystemConfig, classes, comp=CompressionPolicy(),
           backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
           quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None) -> dict:
    """The optima of the policy classes `classes` (some of CLASSES) from one pass,
    as {class: OptimizationResult}: the optimizing twin of `throughput`.

    "sl" is the best tuple (R1, 0, 1) and "bc" the best (R1, R2, alpha), never
    worse; "sl-lcsit" and "bc-lcsit" are their per-node tables on the quad_n
    node grid (Dinkelbach from those tuples; backend "analytic" only).  mc
    takes the keywords of `estimate`; backend "mc" needs its budget there.
    """
    return _optimize(_Evaluator(cfg, comp, backend, quad_n, mc), classes, grid_spec)


def optimize_no_lcsit(cfg: SystemConfig, comp=CompressionPolicy(),
                      backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                      quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                      ) -> OptimizationResult:
    """optima's "bc"."""
    return optima(cfg, ["bc"], comp, backend, grid_spec, quad_n, mc)["bc"]


def optimize_lcsit(cfg: SystemConfig, comp=CompressionPolicy(),
                   grid_spec: GridSpec = GridSpec(), n_nodes: int | None = None,
                   quad_n: int = DEFAULT_QUAD_N) -> OptimizationResult:
    """optima's "bc-lcsit".  n_nodes, when given, is the node grid, which is the
    quadrature grid: it replaces quad_n.  The view is kept for
    `perfbench/baselines.py`."""
    return optima(cfg, ["bc-lcsit"], comp, grid_spec=grid_spec,
                  quad_n=n_nodes or quad_n)["bc-lcsit"]
