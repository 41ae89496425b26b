"""Closed-form channel math shared by the analytic lemmas and the simulator.

Central objects:
  mutual_info(P, Pbar, a, s, d)  per-slot rate of a layer with power P facing
      residual interference power Pbar, side-information gain s, relay-link
      gain d and compression gain a:
          f_I = 1/2 log2(1 + P (s + a(1+s/d)) / (1 + a/d + Pbar (s + a(1+s/d))))
  backhaul_usage(a, d, s, P)     Wyner-Ziv description rate of the relay
  conservative_gain              largest a whose description fits the C_max
      backhaul for side information s_min (or the inferred bound s_hat)
  threshold_offset               c = a/b, b = 1 + a/d: the one term of a
      decode threshold that reads the relay; a scenario forms it once per node
      (`ltsc.node_grid`, whose `NodeGrid` both closed forms read) and the
      simulator once per acknowledged session
  infer_s_hat                    lower bound on S implied by a layer-1 ACK
  slot_threshold                 the s-value above which l slots at signal
      power p_sig against interference p_int carry rate R, given the offset c;
      every lemma branch (including the +/-inf cases) is an instance of this
      one function
  check_supported                which scenarios each evaluator covers

All rates are bits/symbol, logs base 2 with the 1/2 real-signal prefactor.
Everything is numpy-vectorized; +/-inf are legal threshold sentinels that the
fading CDFs map to 1/0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fading import FadingModel
from .tables import ConfigError


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
        if not 0 < self.power < np.inf:
            raise ValueError("power must be finite and > 0")
        if not 0 <= self.backhaul_capacity < np.inf:
            raise ValueError("backhaul_capacity must be finite and >= 0")
        if not self.max_rounds >= 1:
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
        rates = np.concatenate((self.r1.ravel(), self.r2.ravel()))
        if not np.all((rates >= 0) & (rates < np.inf)):
            raise ValueError("rates must be finite and >= 0")
        if not np.all((self.alpha >= 0) & (self.alpha <= 1)):
            raise ValueError("alpha must be in [0, 1]")
        if self.mode == "no_lcsit" and not (self.r1.ndim == self.r2.ndim == self.alpha.ndim == 0):
            raise ValueError("no_lcsit policy takes a single tuple")
        if self.mode == "lcsit" and not (self.r1.ndim == self.r2.ndim == self.alpha.ndim == 1
                                         and self.r1.size == self.r2.size == self.alpha.size > 0):
            raise ValueError("lcsit policy takes 1-D r1, r2 and alpha of one length >= 1")

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


def _split_gain(a, d, out=None):
    """b = 1 + a/d and the a/d guard; a = 0 ignores d, a > 0 needs d > 0 (a NaN
    d gives a NaN b wherever a > 0).

    out, an array of the broadcast shape that is neither a nor d, takes b
    without a temporary.  Where every d > 0 and every a >= 0 (a NaN fails
    both tests), b is 1 + a/d with no mask: the masked form's bits, as it
    would only turn a -0.0 quotient into +0.0, and 1 + -0.0 is 1 + +0.0."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.size and d.size and d.min() > 0 and a.min() >= 0:
        out = np.empty(np.broadcast_shapes(a.shape, d.shape)) if out is None else out
        with np.errstate(invalid="ignore"):  # inf / inf, NaN as in the masked form
            np.divide(a, d, out=out)
        return np.add(1.0, out, out=out)
    pos = a > 0
    if np.any(pos & (d <= 0)):
        raise ValueError("d must be > 0 where a > 0")
    # 1 + where(a > 0, a / where(d > 0, d, 1), 0), one operation at a time
    out = np.empty(np.broadcast_shapes(a.shape, d.shape)) if out is None else out
    np.copyto(out, d)
    np.copyto(out, 1.0, where=d <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, out, out=out)
    np.copyto(out, 0.0, where=~pos)
    return np.add(1.0, out, out=out)


def _info(p, p_bar, b, g, out=None, work=None):
    """f_I from b = 1 + a/d and g = s b + a = s + a(1 + s/d): the one copy of its formula.

    out and work, arrays of the broadcast shape, take f_I and its denominator
    without a temporary; p may be out and p_bar may be work (each is read
    before its buffer is written)."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(p_bar), np.shape(b), np.shape(g))
    out = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    # 0.5 log2(1 + p g / (b + p_bar g))
    den = np.add(b, np.multiply(p_bar, g, out=work), out=work)
    np.divide(np.multiply(p, g, out=out), den, out=out)
    return np.multiply(0.5, np.log2(np.add(1.0, out, out=out), out=out), out=out)


def mutual_info(p, p_bar, a, s, d):
    """f_I(P, Pbar, a, s, d) in bits/symbol: `_split_gain`, then `_info`, which
    the simulator calls directly on the b and g it forms once per session or slot."""
    b = _split_gain(a, d)
    g = np.asarray(s, dtype=float) * b + np.asarray(a, dtype=float)
    out = _info(np.asarray(p, dtype=float), np.asarray(p_bar, dtype=float), b, g)
    return out if out.shape else float(out)


def backhaul_usage(a, d, s, P, out=None, work=None):
    """Wyner-Ziv rate 1/2 log2(1 + a(1/d + P/(1+Ps))) needed to ship the description.

    out and work, arrays of the broadcast shape, take the rate and P/(1+Ps)
    without a temporary; work may be s, which it then overwrites."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any((a > 0) & (d <= 0)):
        raise ValueError("d must be > 0 where a > 0")
    shape = np.broadcast_shapes(a.shape, d.shape, s.shape)
    out = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    # 0.5 log2(1 + a (inv_d + P / (1 + P s))),  inv_d = where(a > 0, 1/d, 0)
    tail = np.divide(P, np.add(1.0, np.multiply(P, s, out=work), out=work), out=work)
    with np.errstate(divide="ignore"):
        inv_d = np.divide(1.0, d, out=out)
    np.copyto(inv_d, 0.0, where=~(a > 0))
    x = np.multiply(a, np.add(inv_d, tail, out=out), out=out)
    out = np.multiply(0.5, np.log2(np.add(1.0, x, out=x), out=x), out=x)
    return out if out.shape else float(out)


def conservative_gain(d, s_min, P, c_max, out=None, work=None):
    """Largest a whose description fits C_max even at the worst side information s_min.

    a_d = beta (1 + s_min P) / (1/d + (1 + s_min/d) P),  beta = 2^(2 C_max) - 1;
    saturates the backhaul exactly: backhaul_usage(a_d, d, s_min, P) = C_max.
    A dead relay link (d = 0) forwards nothing: a_d = 0, the d -> 0 limit.
    out and work, arrays of the broadcast shape that are neither d nor s_min,
    take a_d and 1/d (and the numerator, for an array s_min) without a temporary.
    """
    d = np.asarray(d, dtype=float)
    d_low = np.min(d, initial=np.inf)  # NaN when any d is NaN
    if not d_low >= 0 and np.any(d < 0):
        raise ValueError("d must be >= 0")
    beta = np.exp2(2.0 * np.asarray(c_max, dtype=float)) - 1.0
    s_min = np.asarray(s_min, dtype=float)
    out = np.empty(np.broadcast_shapes(d.shape, s_min.shape, beta.shape)) if out is None else out
    with np.errstate(divide="ignore", invalid="ignore"):
        with np.errstate(over="ignore"):  # 1/d = inf at a subnormal d gives a_d = 0
            s_d, inv_d = np.divide(s_min, d, out=out), np.divide(1.0, d, out=work)
        den = np.multiply(np.add(1.0, s_d, out=out), P, out=out)
        den = np.add(inv_d, den, out=den)
        # the numerator is one value for one s_min, else formed in work after 1/d
        num = np.multiply(s_min, P, out=work if s_min.ndim else None)
        into = num if s_min.ndim else None
        num = np.multiply(beta, np.add(1.0, num, out=into), out=into)
        out = np.divide(num, den, out=den)
    if not d_low > 0:
        np.copyto(out, 0.0, where=d <= 0)  # a NaN d keeps its NaN
    return out if out.shape else float(out)


def threshold_offset(a, d, out=None):
    """c = a/b with b = 1 + a/d (`_split_gain`): the relay's share of a decode
    threshold, so that f_I(p, p_bar, a, s, d) >= rate iff s >= const - c.

    a = 0 gives c = 0 at any d (a dead link, d = 0, included); a > 0 needs
    d > 0, else ValueError; a NaN d gives a NaN c wherever a > 0.  out, an
    array of the broadcast shape that is neither a nor d, takes c without a
    temporary."""
    b = _split_gain(a, d, out=out)
    out = np.divide(np.asarray(a, dtype=float), b, out=b)
    return out if out.shape else float(out)


def slot_threshold(R, l, p_sig, p_int, c, out=None):
    """Smallest s such that l slots of f_I(p_sig, p_int, a, s, d) carry rate R,
    where c = `threshold_offset(a, d)`.

    Decoding within l slots happens iff s >= threshold.  With z = 2^(2R/l):
      R <= 0                      -> -inf  (always decodable)
      p_sig - (z-1) p_int <= 0    -> +inf  (no s suffices)
      z overflows (R > 512 l)     -> +inf  (an outage at any p_int)
      otherwise                      (z-1)/(p_sig - (z-1) p_int) - c
    z and the constant (z-1)/(...) are formed at the shape of R, p_sig and
    p_int: once for a single rate.  out, an array of the broadcast shape that
    is not c, takes the threshold without a temporary.
    """
    R = np.asarray(R, dtype=float)
    p_sig = np.asarray(p_sig, dtype=float)
    p_int = np.asarray(p_int, dtype=float)
    with np.errstate(over="ignore"):
        z = np.exp2(2.0 * np.maximum(R, 0.0) / l)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = p_sig - (z - 1.0) * p_int
        thr = np.asarray(np.subtract((z - 1.0) / den, c, out=out))
    # against p_int = 0 an overflowed z leaves den = NaN, not <= 0
    np.copyto(thr, np.inf, where=(den <= 0) | np.isposinf(z))
    np.copyto(thr, -np.inf, where=R <= 0)
    return thr if thr.shape else float(thr)


def infer_s_hat(R1, k, alpha, c, P, s_min, out=None):
    """Lower bound on S implied by layer 1 decoding within k slots at power split alpha,
    c the `threshold_offset` of the gain layer 1 was sent under.

    Equals max(layer-1 decode threshold, s_min); +inf when that decode event is
    impossible at any s (inconsistent feedback).  out as in `slot_threshold`.
    """
    thr = slot_threshold(R1, k, alpha * np.asarray(P, dtype=float),
                         (1.0 - np.asarray(alpha, dtype=float)) * P, c, out=out)
    out = np.maximum(np.asarray(thr, dtype=float), np.asarray(s_min, dtype=float), out=out)
    return out if out.shape else float(out)


def check_supported(cfg: SystemConfig, comp: CompressionPolicy = CompressionPolicy(),
                    backend: str = "analytic", per_node: bool = False, regime: str | None = None):
    """Raise ConfigError, naming the config key, unless backend can evaluate the scenario.

    backend is "analytic" (the closed forms) or "mc" (the simulator, which
    runs every regime at any T); per_node asks the closed forms or the
    optimizer for per-node (lcsit) policies; regime names the closed form a
    regime module is about to run.
    """
    stsc = cfg.channel_regime == "stsc"
    if comp.adaptive and stsc:
        raise ConfigError("compression: adaptive compression needs the ltsc regime")
    if per_node and (stsc or backend != "analytic"):
        raise ConfigError("csi: per-node policies need the ltsc regime and the analytic "
                          "backend; the stsc closed forms and the mc optimizer take "
                          "single-tuple policies")
    if backend not in ("analytic", "mc"):
        raise ConfigError(f"backend: unknown backend {backend!r} (analytic | mc)")
    if backend == "mc":
        return
    if regime is not None and regime != cfg.channel_regime:
        raise ConfigError(f"regime: the {regime} closed forms need regime = {regime}")
    if cfg.bc_layer2_interference and not stsc:
        raise ConfigError("bc_layer2_interference: the layer-2 residual-interference variant "
                          "has no ltsc closed form; simulate it, or use the stsc regime")
    if stsc and cfg.max_rounds != 2:
        raise ConfigError("T: the stsc closed forms cover T=2 only; simulate handles any T")
