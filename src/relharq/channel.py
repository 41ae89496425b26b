"""Closed-form channel math shared by the analytic lemmas and the simulator.

Central objects:
  mutual_info(P, Pbar, a, s, d)  per-slot rate of a layer with power P facing
      residual interference power Pbar, side-information gain s, relay-link
      gain d and compression gain a:
          f_I = 1/2 log2(1 + P (s + a(1+s/d)) / (1 + a/d + Pbar (s + a(1+s/d))))
  backhaul_usage(a, d, s, P)     Wyner-Ziv description rate of the relay
  conservative_gain / adaptive_gain   largest a whose description fits the
      C_max backhaul for side information s_min / s_hat
  infer_s_hat                    lower bound on S implied by a layer-1 ACK
  slot_threshold                 the s-value above which l slots at signal
      power p_sig against interference p_int carry rate R; every lemma branch
      (including the +/-inf cases) is an instance of this one function

All rates are bits/symbol, logs base 2 with the 1/2 real-signal prefactor.
Everything is numpy-vectorized; +/-inf are legal threshold sentinels that the
fading CDFs map to 1/0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fading import FadingModel

LN2 = np.log(2.0)


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of one relay-channel scenario (all linear units)."""

    power: float                 # P > 0
    backhaul_capacity: float     # C_max >= 0, bits/symbol
    max_rounds: int              # T >= 1
    model_d: FadingModel
    model_s: FadingModel
    channel_regime: str = "ltsc"          # ltsc | stsc
    bc_layer2_interference: bool = False  # keep residual layer-1 power in the
                                          # layer-2 conditional MI instead of
                                          # assuming clean SIC (simulator +
                                          # STSC only)

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("power must be > 0")
        if self.backhaul_capacity < 0:
            raise ValueError("backhaul_capacity must be >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.channel_regime not in ("ltsc", "stsc"):
            raise ValueError(f"unknown regime {self.channel_regime!r}")

    @property
    def s_min(self) -> float:
        return self.model_s.s_min


@dataclass(frozen=True)
class RatePolicy:
    """Design tuple (R1, R2, alpha), constant or a per-node table over the D grid."""

    mode: str                                  # no_lcsit | lcsit
    r1: np.ndarray = field(default=None)       # scalar arrays for no_lcsit,
    r2: np.ndarray = field(default=None)       # node-aligned arrays for lcsit
    alpha: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.mode not in ("no_lcsit", "lcsit"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        for name in ("r1", "r2", "alpha"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.r1 < 0) or np.any(self.r2 < 0):
            raise ValueError("rates must be >= 0")
        if np.any(self.alpha < 0) or np.any(self.alpha > 1):
            raise ValueError("alpha must be in [0, 1]")
        if self.mode == "no_lcsit" and not (self.r1.ndim == self.r2.ndim == self.alpha.ndim == 0):
            raise ValueError("no_lcsit policy takes a single tuple")

    @classmethod
    def constant(cls, r1: float, r2: float, alpha: float) -> "RatePolicy":
        return cls("no_lcsit", r1, r2, alpha)

    @classmethod
    def per_node(cls, r1, r2, alpha) -> "RatePolicy":
        return cls("lcsit", r1, r2, alpha)


@dataclass(frozen=True)
class CompressionPolicy:
    """constant: a_d for s_min throughout; adaptive: switch to a_hat after a layer-1-only ACK."""

    kind: str = "constant"  # constant | adaptive

    def __post_init__(self):
        if self.kind not in ("constant", "adaptive"):
            raise ValueError(f"unknown compression kind {self.kind!r}")

    @property
    def adaptive(self) -> bool:
        return self.kind == "adaptive"


def _split_gain(a, d):
    """b = 1 + a/d and the a/d guard; a = 0 ignores d, a > 0 needs d > 0."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    bad = (a > 0) & (d <= 0)
    if np.any(bad):
        raise ValueError("d must be > 0 where a > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a > 0, a / np.where(d > 0, d, 1.0), 0.0)
    return 1.0 + ratio


def mutual_info(p, p_bar, a, s, d):
    """f_I(P, Pbar, a, s, d) in bits/symbol."""
    p = np.asarray(p, dtype=float)
    p_bar = np.asarray(p_bar, dtype=float)
    s = np.asarray(s, dtype=float)
    b = _split_gain(a, d)
    g = s * b + np.asarray(a, dtype=float)  # s + a(1 + s/d)
    out = 0.5 * np.log2(1.0 + p * g / (b + p_bar * g))
    return out if out.shape else float(out)


def backhaul_usage(a, d, s, P):
    """Wyner-Ziv rate 1/2 log2(1 + a(1/d + P/(1+Ps))) needed to ship the description."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any((a > 0) & (d <= 0)):
        raise ValueError("d must be > 0 where a > 0")
    with np.errstate(divide="ignore"):
        inv_d = np.where(a > 0, 1.0 / d, 0.0)
    out = 0.5 * np.log2(1.0 + a * (inv_d + P / (1.0 + P * s)))
    return out if out.shape else float(out)


def conservative_gain(d, s_min, P, c_max):
    """Largest a whose description fits C_max even at the worst side information s_min.

    a_d = beta (1 + s_min P) / (1/d + (1 + s_min/d) P),  beta = 2^(2 C_max) - 1;
    saturates the backhaul exactly: backhaul_usage(a_d, d, s_min, P) = C_max.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("d must be > 0")
    beta = np.exp2(2.0 * np.asarray(c_max, dtype=float)) - 1.0
    s_min = np.asarray(s_min, dtype=float)
    out = beta * (1.0 + s_min * P) / (1.0 / d + (1.0 + s_min / d) * P)
    return out if out.shape else float(out)


def adaptive_gain(d, s_hat, P, c_max):
    """conservative_gain with the inferred bound s_hat in place of s_min."""
    return conservative_gain(d, s_hat, P, c_max)


def slot_threshold(R, l, p_sig, p_int, a, d):
    """Smallest s such that l slots of f_I(p_sig, p_int, a, s, d) carry rate R.

    Decoding within l slots happens iff s >= threshold.  With z = 2^(2R/l):
      R <= 0                      -> -inf  (always decodable)
      p_sig - (z-1) p_int <= 0    -> +inf  (no s suffices)
      z overflows (R > 512 l)     -> +inf  (an outage at any p_int)
      otherwise                      (z-1)/(p_sig - (z-1) p_int) - a/b
    """
    R = np.asarray(R, dtype=float)
    p_sig = np.asarray(p_sig, dtype=float)
    p_int = np.asarray(p_int, dtype=float)
    b = _split_gain(a, d)
    with np.errstate(over="ignore"):
        z = np.exp2(2.0 * np.maximum(R, 0.0) / l)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = p_sig - (z - 1.0) * p_int
        thr = (z - 1.0) / den - np.asarray(a, dtype=float) / b
    # against p_int = 0 an overflowed z leaves den = NaN, not <= 0
    thr = np.where((den <= 0) | np.isposinf(z), np.inf, thr)
    thr = np.where(R <= 0, -np.inf, thr)
    return thr if thr.shape else float(thr)


def infer_s_hat(R1, k, alpha, d, a_d, P, s_min):
    """Lower bound on S implied by layer 1 decoding within k slots at power split alpha.

    Equals max(layer-1 decode threshold, s_min); +inf when that decode event is
    impossible at any s (inconsistent feedback).
    """
    thr = slot_threshold(R1, k, alpha * np.asarray(P, dtype=float),
                         (1.0 - np.asarray(alpha, dtype=float)) * P, a_d, d)
    out = np.maximum(np.asarray(thr, dtype=float), np.asarray(s_min, dtype=float))
    return out if out.shape else float(out)


def layer_mi(mode, layer, cfg: SystemConfig, a, s, d, policy_tuple):
    """Per-slot MI of one layer in one mode for the tuple (R1, R2, alpha)."""
    _, _, alpha = policy_tuple
    P = cfg.power
    if mode == "bc" and layer == 1:
        return mutual_info(alpha * P, (1.0 - alpha) * P, a, s, d)
    if mode == "bc" and layer == 2:
        p_int = alpha * P if cfg.bc_layer2_interference else 0.0
        return mutual_info((1.0 - alpha) * P, p_int, a, s, d)
    if mode == "sl" and layer == 2:
        return mutual_info(P, 0.0, a, s, d)
    raise ValueError(f"invalid mode/layer combination ({mode}, {layer})")
