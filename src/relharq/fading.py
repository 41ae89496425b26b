"""Fading power-gain distributions and quantile quadrature.

Supported models (all on support [0, inf)):
  Rayleigh   power gain ~ Exp(rho), mean rho
  Rician     power gain = rho/(2(K+1)) * noncentral-chi2(df=2, nc=2K), mean rho
  PointMass  degenerate gain at a fixed value

The gain entering the channel math is the power gain itself; rho is its mean.
Expectations over a gain are taken on an equal-mass quantile grid (bin medians),
which is robust for integrands with clamp kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

_TAIL_Q = 1.0 - 1e-6  # quantile where the grid truncates the upper tail


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
        if self.kind in ("rayleigh", "rician") and not self.mean_power > 0:
            raise ValueError("mean_power must be > 0")
        if self.kind == "rician" and self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")
        if self.kind == "pointmass" and self.point_value < 0:
            raise ValueError("point_value must be >= 0")

    @property
    def s_min(self) -> float:
        """Infimum of the support: 0 for continuous models, the atom for pointmass."""
        return self.point_value if self.kind == "pointmass" else 0.0

    # Rician power gain is rho/(2(K+1)) * ncx2(df=2, nc=2K).
    def _ncx2_scale(self) -> float:
        return self.mean_power / (2.0 * (self.rician_k + 1.0))

    def cdf(self, x):
        """F(x) = Pr[X <= x]; accepts scalars or arrays, +/-inf sentinels included."""
        x = np.asarray(x, dtype=float)
        if self.kind == "pointmass":
            out = np.where(x >= self.point_value, 1.0, 0.0)
        elif self.kind == "rayleigh":
            out = -np.expm1(-np.maximum(x, 0.0) / self.mean_power)
        else:
            xp = np.maximum(x, 0.0) / self._ncx2_scale()
            nc = 2.0 * self.rician_k
            # chndtr is the kernel ncx2.cdf calls for nc > 0, without its
            # argument checks; at nc = 0 ncx2.cdf takes the central chi2
            out = special.chndtr(xp, 2.0, nc) if nc > 0 else stats.ncx2.cdf(xp, df=2, nc=nc)
        out = np.where(x < 0, 0.0, out)
        return out if out.shape else float(out)

    def cdf_strict(self, x):
        """Pr[X < x], the left limit; differs from cdf only at a pointmass atom."""
        if self.kind != "pointmass":
            return self.cdf(x)
        x = np.asarray(x, dtype=float)
        out = np.where(x > self.point_value, 1.0, 0.0)
        return out if out.shape else float(out)

    def ppf(self, q):
        """Quantile function on (0, 1)."""
        q = np.asarray(q, dtype=float)
        if self.kind == "pointmass":
            out = np.full_like(q, self.point_value)
        elif self.kind == "rayleigh":
            out = -self.mean_power * np.log1p(-q)
        else:
            out = stats.ncx2.ppf(q, df=2, nc=2.0 * self.rician_k) * self._ncx2_scale()
        return out if out.shape else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw gains; construction is independent of ppf so the KS test is a real check."""
        if self.kind == "pointmass":
            return np.full(size if size is not None else (), self.point_value)
        if self.kind == "rayleigh":
            return rng.exponential(self.mean_power, size=size)
        # Rician: squared magnitude of a complex amplitude with LOS component.
        k = self.rician_k
        nu = math.sqrt(self.mean_power * k / (k + 1.0))
        sigma = math.sqrt(self.mean_power / (2.0 * (k + 1.0)))
        g1 = rng.standard_normal(size)
        g2 = rng.standard_normal(size)
        return (nu + sigma * g1) ** 2 + (sigma * g2) ** 2


def cdf_of_min(u, v, Fu, Fv):
    """F(min(u, v)) from F(u) and F(v), bit for bit: min returns one of its
    arguments (NaN included, which it propagates)."""
    return np.where((u <= v) | np.isnan(u), Fu, Fv)


def cdf_of_max(u, v, Fu, Fv):
    """F(max(u, v)) from F(u) and F(v), bit for bit, like cdf_of_min."""
    return np.where((u >= v) | np.isnan(u), Fu, Fv)


@dataclass(frozen=True)
class QuadratureGrid:
    """Equal-mass quantile grid: nodes are bin medians, weights sum to 1 exactly.

    edges has len(nodes)-1 interior bin boundaries so a drawn gain can be
    mapped back to its node with searchsorted (used by per-node rate policies).
    """

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    source_model: FadingModel

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
            source_model=model,
        )
    probs = np.minimum((np.arange(n) + 0.5) / n, _TAIL_Q)
    nodes = model.ppf(probs)
    weights = np.full(n, 1.0 / n)
    edges = model.ppf(np.arange(1, n) / n)
    return QuadratureGrid(nodes=nodes, weights=weights, edges=edges, source_model=model)
