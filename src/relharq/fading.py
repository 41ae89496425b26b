"""Fading power-gain distributions and quantile quadrature.

Supported models (all on support [0, inf)):
  Rayleigh   power gain ~ Exp(rho), mean rho
  Rician     power gain = rho/(2(K+1)) * noncentral-chi2(df=2, nc=2K), mean rho
  PointMass  degenerate gain at a fixed value

The gain entering the channel math is the power gain itself; rho is its mean.
Expectations over a gain are taken on an equal-mass quantile grid (bin medians),
which is robust for integrands with clamp kinks.

The Rician cdf and ppf call the scipy.special kernels behind scipy's ncx2
distribution (chndtr and chndtrix; the central chi2 chdtr and gammaincinv at
nc = 0), which give its values bit for bit; importing scipy's stats subpackage
would be most of a CLI job's start-up.  scipy.special itself is imported by
the first Rician cdf or ppf (or the first Rician G), not with this module: the
Rayleigh and point-mass closed forms and every sampler are numpy only, so a
job that never takes a Rician cdf or ppf (a Monte Carlo run of one tuple, say)
is spared the import, about 0.3 s and 25 MB of a fresh `import relharq.cli`.

Work that splits into independent pieces runs on threads in one place,
`_on_threads`: the calling thread and up to threads - 1 `_POOL` tasks take the
pieces from one shared iterator.  Its users are the Rician cdf, whose slabs
run on two threads when it is large (`_rician_cdf`; the STSC inner sum G
reaches it as one cdf call per chunk), and a Monte Carlo estimate, whose
batches run on `mc.workers` (`simulate.estimate`).  The cdf kernels are
elementwise, so each slab gives the doubles it gives inside the whole array.
`cdf` and `cdf_strict` write into `out=`, which may be their argument itself: a
continuous cdf then takes no temporary larger than one slab of a Rician cdf.
"""

from __future__ import annotations

import contextvars
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

_TAIL_Q = 1.0 - 1e-6  # quantile where the grid truncates the upper tail
DEFAULT_QUAD_N = 64  # quadrature size of every closed form: quad.n and the library defaults
# points from which the Rician cdf runs in slabs on two threads: on 2 cores
# 2^14 points take 4.1 ms in one call and 2.3 ms as halves, while at 2^10 the
# hand-off of about 0.1 ms eats the gain.  The LTSC node tables mostly call it
# below 2^14 (a median of 160 points in design-ltsc's optimize job), while a
# chunk of the STSC inner sum G holds up to 500,000 points
SPLIT_POINTS = 1 << 14
MAX_THREADS = 64  # threads of one `_on_threads` call, the caller's included; mc.workers' cap
_POOL = ThreadPoolExecutor(max_workers=MAX_THREADS - 1)  # starts its threads on demand


def _on_threads(run, pieces, threads):
    """Call run(piece) for each of the pieces (a sized iterable, no piece None)
    on the calling thread and min(threads, len(pieces)) - 1 _POOL tasks, which
    take them in turn from one shared iterator; return once every piece has
    run.  One piece, or one thread, runs on the calling thread alone.  Pool
    tasks run in copies of the caller's context (numpy's errstate included).

    The caller drains the pieces itself and then cancels each pool task that
    has not started, so it never waits on a task that cannot start (the pool
    may be busy, or run this very call).  An exception in any thread stops
    every thread from taking another piece and is raised here once, after the
    other threads' pieces have ended: no piece runs after the return.
    """
    if min(threads, len(pieces)) <= 1:
        for piece in pieces:
            run(piece)
        return
    left, lock, failed = iter(pieces), threading.Lock(), threading.Event()

    def drain():
        while True:
            with lock:
                piece = None if failed.is_set() else next(left, None)
            if piece is None:
                return
            try:
                run(piece)
            except BaseException:
                failed.set()
                raise

    helpers = [_POOL.submit(contextvars.copy_context().run, drain)
               for _ in range(min(threads, len(pieces)) - 1)]
    try:
        drain()
    finally:
        wait([helper for helper in helpers if not helper.cancel()])
    for helper in helpers:
        if not helper.cancelled():
            helper.result()


def _rician_cdf(xp, scale, nc):
    """Overwrite xp with the Rician kernel (chndtr, or chdtr at nc = 0) of
    xp / scale at its live points, xp > 0 or NaN, and with +0.0 elsewhere: the
    doubles of one call over max(xp, 0) / scale, as max sends xp <= 0 (-0.0
    included) to +0.0, where both kernels give +0.0.  A C-contiguous xp of
    SPLIT_POINTS points or more runs as an even number of equal slabs of at most
    SPLIT_POINTS // 2 points on the calling thread and one pool thread
    (`_on_threads`; the kernels release the GIL, and scipy.special is imported
    here, so no pool thread imports it); any other xp is one slab."""
    from scipy import special

    def slab(part):
        live = ~(part <= 0)  # NaN stays live
        x = part[live] / scale
        part.fill(0.0)
        part[live] = special.chndtr(x, 2.0, nc, out=x) if nc > 0 else special.chdtr(2.0, x, out=x)

    slabs = [xp]
    if xp.size >= SPLIT_POINTS and xp.flags.c_contiguous:
        flat, n = xp.reshape(-1), 2 * -(-xp.size // SPLIT_POINTS)
        slabs = [flat[i * xp.size // n : (i + 1) * xp.size // n] for i in range(n)]
    _on_threads(slab, slabs, 2)


@dataclass(frozen=True)
class FadingModel:
    """One fading gain distribution: kind in {rayleigh, rician, pointmass}."""

    kind: str
    mean_power: float = 1.0   # rho, linear; unused for pointmass
    rician_k: float = 0.0     # K >= 0, rician only
    point_value: float = 0.0  # pointmass only

    def __post_init__(self):
        if self.kind not in ("rayleigh", "rician", "pointmass"):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind in ("rayleigh", "rician") and not 0 < self.mean_power < math.inf:
            raise ValueError("mean_power must be finite and > 0")
        if self.kind == "rician" and not 0 <= self.rician_k < math.inf:
            raise ValueError("rician_k must be finite and >= 0")
        if self.kind == "pointmass" and not 0 <= self.point_value < math.inf:
            raise ValueError("point_value must be finite and >= 0")

    @property
    def s_min(self) -> float:
        """Infimum of the support: 0 for continuous models, the atom for pointmass."""
        return self.point_value if self.kind == "pointmass" else 0.0

    # Rician power gain is rho/(2(K+1)) * ncx2(df=2, nc=2K).
    def _ncx2_scale(self) -> float:
        return self.mean_power / (2.0 * (self.rician_k + 1.0))

    def cdf(self, x, out=None):
        """F(x) = Pr[X <= x] of scalars or arrays, +/-inf included, and NaN at NaN;
        out, a float64 array of x's shape (x itself, say), takes the values."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        if self.kind == "pointmass":
            np.copyto(out, np.where(np.isnan(x), x, x >= self.point_value))
        elif self.kind == "rayleigh":  # max(x, 0) maps x < 0 and -0.0 to +0.0, where F is +0.0
            np.divide(np.maximum(x, 0.0, out=out), -self.mean_power, out=out)
            np.negative(np.expm1(out, out=out), out=out)
        else:  # the kernels ncx2.cdf calls
            if out is not x:
                np.copyto(out, x)
            _rician_cdf(out, self._ncx2_scale(), 2.0 * self.rician_k)
        return out if out.shape else float(out)

    def cdf_strict(self, x, out=None):
        """Pr[X < x], the left limit; differs from cdf only at a pointmass atom."""
        if self.kind != "pointmass":
            return self.cdf(x, out)
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape) if out is None else out
        np.copyto(out, np.where(np.isnan(x), x, x > self.point_value))
        return out if out.shape else float(out)

    def ppf(self, q):
        """Quantile function on (0, 1)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "pointmass":
            out = np.full_like(q, self.point_value)
        elif self.kind == "rayleigh":
            out = -self.mean_power * np.log1p(-q)
        else:
            from scipy import special

            # the kernels ncx2.ppf calls; they give its 0, +inf and NaN at
            # q = 0, q = 1 and q outside [0, 1] (the sign of a NaN may differ)
            nc = 2.0 * self.rician_k
            x = special.chndtrix(q, 2.0, nc) if nc > 0 else 2.0 * special.gammaincinv(1.0, q)
            out = x * self._ncx2_scale()
        return out if out.shape else float(out)

    def sample(self, rng: np.random.Generator, size=None, out=None, work=None):
        """Draw gains; construction is independent of ppf so the KS test is a real check.

        out, a float64 array of shape size, takes the draws; work, another,
        takes a Rician draw's second normal draw, which is allocated when
        work is None.  Neither changes a draw.
        """
        if self.kind == "pointmass":
            if out is None:
                return np.full(size if size is not None else (), self.point_value)
            out.fill(self.point_value)
            return out
        if self.kind == "rayleigh":
            # rng.exponential(rho) draws rho times a standard exponential, bit for bit
            x = rng.standard_exponential(size, out=out)
            if isinstance(x, float):
                return x * self.mean_power
            return np.multiply(x, self.mean_power, out=x)
        # Rician: squared magnitude of a complex amplitude with LOS component.
        k = self.rician_k
        nu = math.sqrt(self.mean_power * k / (k + 1.0))
        sigma = math.sqrt(self.mean_power / (2.0 * (k + 1.0)))
        g1 = rng.standard_normal(size, out=out)
        g2 = rng.standard_normal(size, out=work)
        if np.ndim(g1) == 0:  # floats at size None, 0-d arrays at size ()
            return (nu + sigma * g1) ** 2 + (sigma * g2) ** 2
        # the same operations in place over the two draws
        g1 *= sigma
        g1 += nu
        g2 *= sigma
        return np.add(np.square(g1, out=g1), np.square(g2, out=g2), out=g1)


def cdf_of_min(u, v, Fu, Fv):
    """F(min(u, v)) from F(u) and F(v), bit for bit: min returns one of its
    arguments (NaN included, which it propagates)."""
    return np.where((u <= v) | np.isnan(u), Fu, Fv)


@dataclass(frozen=True)
class QuadratureGrid:
    """Equal-mass quantile grid: nodes are bin medians, each weight the double 1/n.

    The weights sum to 1 only up to rounding: the running sum of n copies of
    1/n misses 1.0 for 284 of n = 1..299 (n = 10 gives 0.9999999999999999).

    edges has len(nodes)-1 interior bin boundaries so a drawn gain can be
    mapped back to its node with searchsorted (used by per-node rate policies).
    """

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray

    def node_index(self, x) -> np.ndarray:
        return np.searchsorted(self.edges, x, side="right")


def quantize(model: FadingModel, n: int) -> QuadratureGrid:
    """Equal-mass n-node grid for E[g(X)]; PointMass collapses to one node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.kind == "pointmass":
        return QuadratureGrid(
            nodes=np.array([model.point_value]),
            weights=np.array([1.0]),
            edges=np.array([]),
        )
    probs = np.minimum((np.arange(n) + 0.5) / n, _TAIL_Q)
    nodes = model.ppf(probs)
    weights = np.full(n, 1.0 / n)
    edges = model.ppf(np.arange(1, n) / n)
    return QuadratureGrid(nodes=nodes, weights=weights, edges=edges)
