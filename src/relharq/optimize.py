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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig
from .fading import QuadratureGrid, quantize
from .ltsc import node_reward_length, throughput_ltsc
from .simulate import estimate
from .stsc import stsc_quantities, throughput_stsc
from .tables import NumericalError

DEFAULT_QUAD_N = 64


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
    """eta over a (r1, r2) block at fixed alpha; analytic or Monte Carlo."""

    def __init__(self, cfg, comp, backend, quad_n, mc):
        if backend not in ("analytic", "mc"):
            raise ValueError(f"unknown backend {backend!r}")
        if cfg.channel_regime == "stsc" and comp.adaptive:
            raise ValueError("adaptive compression requires the ltsc regime")
        self.cfg, self.comp, self.backend = cfg, comp, backend
        self.quad_n = quad_n
        self.mc = {"sessions": 20_000, "seed": 0, "batch_size": 1 << 16, "workers": 1,
                   **(mc or {})}
        self.grid = quantize(cfg.model_d, quad_n) if cfg.channel_regime == "ltsc" else None
        self.n_evals = 0

    def block(self, r1v: np.ndarray, r2v: np.ndarray, alpha: float) -> np.ndarray:
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
            return (reward @ self.grid.weights) / (length @ self.grid.weights)
        # chunk r1 so the (q1, q2, nd, ns) mass tensor stays bounded
        rows = max(1, int(24_000_000 // max(1, len(r2v) * self.quad_n**2)))
        out = np.empty((len(r1v), len(r2v)))
        for i in range(0, len(r1v), rows):
            r1c = r1v[i : i + rows]
            q = stsc_quantities(self.cfg, r1c, r2v, alpha, n=self.quad_n)
            er = r1c[:, None] * (1 - q["p1_out_2"]) + r2v[None, :] * (1 - q["p2_out_2"])
            out[i : i + rows] = er / (2.0 - q["p2_dec_1"])
        return out

    def rethroughput(self, policy: RatePolicy):
        if self.backend == "mc":
            return estimate(self.cfg, policy, self.comp, self.mc["sessions"],
                            self.mc["seed"], self.mc["batch_size"], self.mc["workers"]
                            ).throughput()
        if self.cfg.channel_regime == "ltsc":
            return throughput_ltsc(self.cfg, policy, self.comp, grid=self.grid)
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


def _scan(ev: _Evaluator, r1_axis, r2_axis, alpha_axis, best=None):
    for alpha in alpha_axis:
        eta = ev.block(r1_axis, r2_axis, float(alpha))
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


def _result(ev: _Evaluator, best, extra_meta):
    policy = RatePolicy.constant(best[2], best[3], best[1])
    meta = {"grid_eta": best[0], "n_evals": ev.n_evals, **extra_meta}
    return OptimizationResult(policy=policy, eta=best[0], backend=ev.backend, metadata=meta)


def optimize_single_layer(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                          backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                          quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                          ) -> OptimizationResult:
    """Best single-message benchmark: maximize eta(R1, 0, 1) over R1."""
    ev = _Evaluator(cfg, comp, backend, quad_n, mc)
    best = _scan(ev, grid_spec.r_axis(), np.array([0.0]), np.array([1.0]))
    best = _refine(ev, grid_spec, best, frozen_r2=0.0, frozen_alpha=1.0)
    return _result(ev, best, {"policy_class": "single_layer",
                              "grid": (grid_spec.r_max, grid_spec.r_step)})


def optimize_no_lcsit(cfg: SystemConfig, comp=CompressionPolicy("constant"),
                      backend: str = "analytic", grid_spec: GridSpec = GridSpec(),
                      quad_n: int = DEFAULT_QUAD_N, mc: dict | None = None
                      ) -> OptimizationResult:
    """Best fixed tuple (R1, R2, alpha); never worse than the single-layer slice."""
    sl = optimize_single_layer(cfg, comp, backend, grid_spec, quad_n, mc)
    ev = _Evaluator(cfg, comp, backend, quad_n, mc)
    seed = (sl.eta, float(sl.policy.alpha), float(sl.policy.r1), float(sl.policy.r2))
    best = _scan(ev, grid_spec.r_axis(), grid_spec.r_axis(), grid_spec.alpha_axis(), best=seed)
    best = _refine(ev, grid_spec, best)
    return _result(ev, best, {"policy_class": "no_lcsit",
                              "grid": (grid_spec.r_max, grid_spec.r_step, grid_spec.alpha_step),
                              "single_layer_seed": seed})


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
    if cfg.channel_regime != "ltsc":
        raise ValueError("per-node policies are optimized under the ltsc regime only")
    if backend != "analytic":
        raise ValueError("per-node optimization supports the analytic backend only")
    nd = n_nodes if n_nodes is not None else quad_n
    if nd < 1:
        raise ValueError("n_nodes must be >= 1")

    if single_layer:
        base = optimize_single_layer(cfg, comp, backend, grid_spec, quad_n, mc)
        r2_axis, alpha_axis = np.array([0.0]), np.array([1.0])
    else:
        base = optimize_no_lcsit(cfg, comp, backend, grid_spec, quad_n, mc)
        r2_axis, alpha_axis = grid_spec.r_axis(), grid_spec.alpha_axis()
    r1_axis = grid_spec.r_axis()

    grid = quantize(cfg.model_d, nd)
    nd = len(grid.nodes)  # pointmass collapses to one node
    r1n = np.full(nd, float(base.policy.r1))
    r2n = np.full(nd, float(base.policy.r2))
    an = np.full(nd, float(base.policy.alpha))

    def node_rl(r1, r2, alpha):
        return node_reward_length(cfg, r1, r2, alpha, grid, comp)

    reward_inc, length_inc = node_rl(r1n, r2n, an)
    lam = float((reward_inc @ grid.weights) / (length_inc @ grid.weights))
    trajectory = [lam]
    converged = False

    for _ in range(max_iter):
        best_score = reward_inc - lam * length_inc  # incumbent always a candidate
        new_r1, new_r2, new_a = r1n.copy(), r2n.copy(), an.copy()
        for alpha in alpha_axis:
            reward, length = node_rl(r1_axis[:, None, None], r2_axis[None, :, None],
                                     np.float64(alpha))
            score = (reward - lam * length).reshape(-1, nd)
            pick = np.argmax(score, axis=0)
            top = score[pick, np.arange(nd)]
            gain = top > best_score + 1e-15
            if np.any(gain):
                i, j = np.divmod(pick[gain], len(r2_axis))
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

    policy = RatePolicy.per_node(r1n, r2n, an)
    return OptimizationResult(
        policy=policy, eta=lam, backend=backend,
        metadata={"policy_class": "lcsit_single_layer" if single_layer else "lcsit",
                  "n_nodes": nd, "lambda_trajectory": trajectory,
                  "converged": converged, "iterations": len(trajectory) - 1,
                  "warning": None if converged else "fractional programming hit max_iter",
                  "seed_eta": base.eta},
    )
