"""Flat key=value experiment configs.

Grammar: UTF-8 text, one `key = value` per line; blank lines and lines whose
first non-space character is `#` are ignored.  Keys are the dotted lowercase
identifiers of `_SCHEMA` below, whose rows give each key's kind, default, bounds
and meaning; unknown or duplicate keys are rejected with the offending key
named.  dB enters here and nowhere else: `P_dB` and the `*.rho_dB` mean powers
are converted to linear units when the config is turned into a SystemConfig,
and `fading_*.value` (the pointmass atom) is already a linear power gain.

The effective config (all defaults made explicit) is echoed next to every CSV
artifact in the same grammar, so any row is regenerable from its sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig
from .fading import DEFAULT_QUAD_N, FadingModel
from .tables import ConfigError  # noqa: F401  (re-exported: relharq.config.ConfigError)


def db_to_linear(x_db: float) -> float:
    """10^(x/10); ConfigError unless that is a finite positive double."""
    try:
        value = 10.0 ** (x_db / 10.0)
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{x_db!r} dB has no finite positive linear value")
    return value


@dataclass(frozen=True)
class GridSpec:
    """Optimizer search lattice: rates on [0, r_max] and alpha on [0, 1]."""

    r_max: float = 6.0
    r_step: float = 0.05
    alpha_step: float = 0.02
    refine_rounds: int = 3

    def __post_init__(self):
        if not (0 <= self.r_max < math.inf and self.r_step > 0 and 0 < self.alpha_step <= 1):
            raise ValueError("empty search grid")
        if not self.refine_rounds >= 0:
            raise ValueError("refine_rounds must be >= 0")

    def r_axis(self) -> np.ndarray:
        return _axis(0.0, self.r_max, self.r_step)

    def alpha_axis(self) -> np.ndarray:
        return _axis(0.0, 1.0, self.alpha_step)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


# (key, kind, default, constraint); order fixes the echo layout.
_SCHEMA = [
    ("regime", "enum", "ltsc", ("ltsc", "stsc")),
    ("T", "int", 2, (1, None)),                        # max transmissions per session
    ("P_dB", "float", 0.0, None),                      # transmit power, dB
    # backhaul capacity, bits/symbol; beta = 2^(2 Cmax) - 1 overflows from 512 on
    ("Cmax", "float", 1.0, (0.0, 511.0)),
    # relay link D: rho_dB is the mean power (rayleigh/rician), K the Rician
    # factor, value the linear pointmass atom; S (side information) alike
    ("fading_D.dist", "enum", "rician", ("rayleigh", "rician", "pointmass")),
    ("fading_D.rho_dB", "float", 0.0, None),
    ("fading_D.K", "float", 0.0, (0.0, None)),
    ("fading_D.value", "float", 1.0, (0.0, None)),
    ("fading_S.dist", "enum", "rayleigh", ("rayleigh", "rician", "pointmass")),
    ("fading_S.rho_dB", "float", 0.0, None),
    ("fading_S.K", "float", 0.0, (0.0, None)),
    ("fading_S.value", "float", 1.0, (0.0, None)),
    ("bc_layer2_interference", "bool", False, None),   # layer-2 MI keeps residual layer-1 power
    ("compression", "enum", "constant", ("constant", "adaptive")),
    ("csi", "enum", "none", ("none", "lcsit")),
    ("policy", "policy", "optimize", None),            # "optimize" or "r1,r2,alpha"
    ("backend", "enum", "analytic", ("analytic", "mc")),  # of the optimize job
    ("mc.sessions", "int", 100_000, (2, None)),  # one session has no std error
    ("mc.seed", "int", 0, (0, None)),
    ("mc.batch", "int", 65_536, (1, None)),
    ("mc.workers", "int", 1, (1, None)),
    # analytic quadrature size, which is also the per-node policy grid; it stops
    # at 2^20 nodes, where one float64 row is 8 MB, so a grid that cannot be
    # allocated is a config error
    ("quad.n", "int", DEFAULT_QUAD_N, (2, 1 << 20)),
    # optimizer search lattice
    ("grid.r_max", "float", 6.0, (1e-12, None)),
    ("grid.r_step", "float", 0.05, (1e-12, None)),
    ("grid.alpha_step", "float", 0.02, (1e-12, 1.0)),
    ("grid.refine", "int", 3, (0, None)),
    # a numeric key to sweep over comma-separated values: the rows of each
    # value, led by it
    ("sweep.key", "str", "", None),
    ("sweep.values", "str", "", None),
    ("out", "str", "results", None),                   # output directory
]
_KINDS = {key: kind for key, kind, _, _ in _SCHEMA}
_DEFAULTS = {key: default for key, _, default, _ in _SCHEMA}
_CONSTRAINTS = {key: constraint for key, _, _, constraint in _SCHEMA}

# Keys whose value is a plain number, so a sweep can rebind them row by row.
SWEEPABLE = (
    "T", "P_dB", "Cmax",
    "fading_D.rho_dB", "fading_D.K", "fading_D.value",
    "fading_S.rho_dB", "fading_S.K", "fading_S.value",
)


def _parse_value(key: str, raw: str):
    kind = _KINDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("must be finite")
        elif kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            value = raw == "true"
        elif kind == "enum":
            if raw not in _CONSTRAINTS[key]:
                raise ValueError(f"expected one of {', '.join(_CONSTRAINTS[key])}")
            value = raw
        elif kind == "policy":
            value = raw if raw == "optimize" else _parse_tuple(raw)
        else:
            value = raw
    except ValueError as err:
        raise ConfigError(f"{key}: bad value {raw!r} ({err})") from None

    bounds = _CONSTRAINTS[key]
    if kind in ("int", "float") and bounds is not None:
        lo, hi = bounds
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise ConfigError(f"{key}: value {raw} outside allowed range")
    return value


def _parse_tuple(raw: str) -> str:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError('expected "optimize" or "r1,r2,alpha"')
    r1, r2, alpha = (float(p) for p in parts)
    if not (0 <= r1 < math.inf and 0 <= r2 < math.inf):
        raise ValueError("rates must be finite and >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return f"{r1!r},{r2!r},{alpha!r}"  # canonical form; round-trips exactly


def _format_value(key: str, value) -> str:
    kind = _KINDS[key]
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config_text(text: str) -> "ExperimentConfig":
    """Parse the grammar above into an ExperimentConfig with defaults applied."""
    values = dict(_DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(values, explicit=frozenset(seen))


def load_config(path: str) -> "ExperimentConfig":
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return parse_config_text(text)


@dataclass(frozen=True)
class ExperimentConfig:
    """Schema-validated key-value map plus builders for the library types."""

    values: dict
    explicit: frozenset = field(default=frozenset(), compare=False)

    def __post_init__(self):
        self._check_sweep()

    def __getitem__(self, key: str):
        return self.values[key]

    def _check_sweep(self):
        key = self.values["sweep.key"]
        raw = self.values["sweep.values"]
        if not key:
            if raw:
                raise ConfigError("sweep.values: set sweep.key as well")
            return
        if key not in SWEEPABLE:
            raise ConfigError(f"sweep.key: {key!r} is not sweepable "
                              f"(choose from {', '.join(SWEEPABLE)})")
        if not raw:
            raise ConfigError("sweep.values: required when sweep.key is set")
        for v in self.sweep_values():
            # figure 4 renders its T values as 1.0,2.0,...: T takes integer-valued floats
            if key == "T" and not v.is_integer():
                raise ConfigError("sweep.values: T sweep values must be integers")
            try:  # the rule a config line meets
                _parse_value(key, str(int(v)) if key == "T" else repr(v))
            except ConfigError as err:
                raise ConfigError(f"sweep.values: {err}") from None

    def sweep_values(self) -> list:
        raw = self.values["sweep.values"]
        if not raw:
            return []
        try:
            return [float(p.strip()) for p in raw.split(",")]
        except ValueError:
            raise ConfigError(f"sweep.values: bad number list {raw!r}") from None

    def with_value(self, key: str, value) -> "ExperimentConfig":
        """Copy with one key rebound (sweep points, CLI overrides)."""
        return self.with_values({key: value})

    def with_values(self, mapping: dict) -> "ExperimentConfig":
        """Atomic multi-key copy; T is coerced back to int for T sweeps."""
        updated = dict(self.values)
        for key, value in mapping.items():
            if key not in updated:
                raise ConfigError(f"unknown key {key!r}")
            updated[key] = int(value) if key == "T" else value
        return ExperimentConfig(updated, explicit=self.explicit | set(mapping))

    # ---- builders (the only dB -> linear crossing) ----

    def _linear(self, key: str) -> float:
        try:
            return db_to_linear(self.values[key])
        except ConfigError as err:
            raise ConfigError(f"{key}: {err}") from None

    def fading(self, side: str) -> FadingModel:
        prefix = f"fading_{side}"
        dist = self.values[f"{prefix}.dist"]
        if dist == "pointmass":
            return FadingModel("pointmass", point_value=self.values[f"{prefix}.value"])
        return FadingModel(dist,
                           mean_power=self._linear(f"{prefix}.rho_dB"),
                           rician_k=self.values[f"{prefix}.K"])

    def system(self) -> SystemConfig:
        return SystemConfig(
            power=self._linear("P_dB"),
            backhaul_capacity=self.values["Cmax"],
            max_rounds=self.values["T"],
            model_d=self.fading("D"),
            model_s=self.fading("S"),
            channel_regime=self.values["regime"],
            bc_layer2_interference=self.values["bc_layer2_interference"],
        )

    def compression(self) -> CompressionPolicy:
        return CompressionPolicy(self.values["compression"])

    def policy_tuple(self):
        """(r1, r2, alpha) for an explicit policy, None for `optimize`."""
        raw = self.values["policy"]
        if raw == "optimize":
            return None
        r1, r2, alpha = (float(p) for p in raw.split(","))
        return r1, r2, alpha

    def rate_policy(self) -> RatePolicy:
        tup = self.policy_tuple()
        if tup is None:
            raise ConfigError("policy: this job needs an explicit r1,r2,alpha tuple")
        return RatePolicy.constant(*tup)

    def grid_spec(self) -> GridSpec:
        return GridSpec(r_max=self.values["grid.r_max"],
                        r_step=self.values["grid.r_step"],
                        alpha_step=self.values["grid.alpha_step"],
                        refine_rounds=self.values["grid.refine"])

    def mc_kwargs(self) -> dict:
        return {"n_sessions": self.values["mc.sessions"],
                "master_seed": self.values["mc.seed"],
                "batch_size": self.values["mc.batch"],
                "workers": self.values["mc.workers"]}

    def render(self) -> str:
        """Effective config in the input grammar; parses back to an equal config."""
        lines = [f"{key} = {_format_value(key, self.values[key])}"
                 for key, _, _, _ in _SCHEMA]
        return "\n".join(lines) + "\n"
