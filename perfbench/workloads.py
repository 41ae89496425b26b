"""Workload definitions: a seed turns into the generated configs of each job.

The seed moves continuous inputs only, inside the half-widths below; model
kinds, grid sizes, quadrature sizes and session counts are fixed per workload.
Every workload also has a smoke size: the same jobs on tiny grids, used for
the untimed warm-up before each timed run and by the benchmark's own test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0       # the seed the stored reference outputs were made at

# Narrow, because a job's cost moves with its inputs (the Rician cdf's cost
# depends on where the thresholds fall): at 4x these widths the per-seed cost
# of design-ltsc spread by 12% of its median, against 7% with no jitter at all.
DB_HALF_WIDTH = 0.05      # dB points (P_dB, rho_dB, sweep values): +/- 0.05 dB
RATE_HALF_WIDTH = 0.005   # tuple rates r1, r2: +/- 0.005 bit/symbol
ALPHA_HALF_WIDTH = 0.001  # tuple power split alpha: +/- 0.001

WORKLOADS = ("mc", "design-ltsc", "design-stsc", "point-fine")

# Optimizer knobs of the design workloads (full sizes, smoke size).
_LTSC_GRID = {"quad.n": 32, "grid.r_step": 0.2, "grid.alpha_step": 0.1, "grid.refine": 3}
_STSC_GRID = {**_LTSC_GRID, "grid.r_step": 0.25}
_SMOKE_GRID = {"quad.n": 8, "grid.r_step": 1.0, "grid.alpha_step": 0.5, "grid.refine": 1}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `relharq <argv> --config <name>.cfg --out <name>/`."""

    name: str
    argv: tuple        # subcommand words, e.g. ("figure", "2")
    config: dict       # flat config keys -> values

    @property
    def kind(self) -> str:
        """Output kind: simulate, analytic, optimize or figure<N>."""
        return "".join(self.argv)

    @property
    def csv_name(self) -> str:
        return f"{self.kind}.csv"

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


class _Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def shift(self, center: float, half_width: float) -> float:
        return round(center + self._rng.uniform(-half_width, half_width), 4)

    def db(self, center: float) -> float:
        return self.shift(center, DB_HALF_WIDTH)

    def policy(self, r1: float, r2: float, alpha: float) -> str:
        return (f"{self.shift(r1, RATE_HALF_WIDTH)},{self.shift(r2, RATE_HALF_WIDTH)},"
                f"{self.shift(alpha, ALPHA_HALF_WIDTH)}")


def _mc(j: _Jitter, seed: int, smoke: bool) -> list:
    common = {
        "P_dB": j.db(0.0), "Cmax": 1.5,
        "fading_D.dist": "rician", "fading_D.rho_dB": j.db(6.0), "fading_D.K": 2.0,
        "policy": j.policy(0.9, 0.5, 0.95),
        "mc.sessions": 20_000 if smoke else 1_000_000, "mc.seed": seed, "mc.workers": 2,
    }
    return [
        Job("simulate-ltsc", ("simulate",), {
            **common, "regime": "ltsc", "T": 3, "compression": "adaptive",
            "fading_S.dist": "rayleigh", "fading_S.rho_dB": j.db(0.0)}),
        Job("simulate-stsc", ("simulate",), {
            **common, "regime": "stsc", "T": 2, "compression": "constant",
            "fading_S.dist": "rician", "fading_S.rho_dB": j.db(0.0), "fading_S.K": 1.0}),
    ]


def _design_ltsc(j: _Jitter, seed: int, smoke: bool) -> list:
    grid = _SMOKE_GRID if smoke else _LTSC_GRID
    sweep = ",".join(repr(j.db(v)) for v in (0.0, 10.0, 20.0))
    return [
        # a figure override config must restate the caption's sweep key
        Job("figure2", ("figure", "2"), {
            **grid, "sweep.key": "fading_D.rho_dB", "sweep.values": sweep}),
        Job("optimize-ltsc", ("optimize",), {
            **grid, "regime": "ltsc", "T": 3, "compression": "adaptive", "csi": "none",
            "P_dB": j.db(0.0), "Cmax": 1.5,
            "fading_D.dist": "rician", "fading_D.rho_dB": j.db(10.0), "fading_D.K": 0.0,
            "fading_S.dist": "rician", "fading_S.rho_dB": j.db(0.0), "fading_S.K": 1.0}),
    ]


def _design_stsc(j: _Jitter, seed: int, smoke: bool) -> list:
    grid = _SMOKE_GRID if smoke else _STSC_GRID
    rho = j.db(10.0)  # the figure-6 point: both links at the same mean SNR
    return [
        Job("optimize-stsc", ("optimize",), {
            **grid, "regime": "stsc", "T": 2, "compression": "constant", "csi": "none",
            "P_dB": 0.0, "Cmax": 5.0,
            "fading_D.dist": "rician", "fading_D.rho_dB": rho, "fading_D.K": 0.0,
            "fading_S.dist": "rayleigh", "fading_S.rho_dB": rho}),
    ]


def _point_fine(j: _Jitter, seed: int, smoke: bool) -> list:
    models = {"Cmax": 1.5, "fading_D.dist": "rician", "fading_D.rho_dB": j.db(6.0),
              "fading_D.K": 2.0}
    return [
        Job("analytic-stsc", ("analytic",), {
            **models, "regime": "stsc", "T": 2, "compression": "constant",
            "fading_S.dist": "rician", "fading_S.rho_dB": j.db(0.0), "fading_S.K": 1.0,
            "policy": j.policy(0.9, 0.5, 0.95), "quad.n": 16 if smoke else 160,
            "sweep.key": "P_dB",
            "sweep.values": ",".join(repr(j.db(v)) for v in (0.0, 5.0))}),
        Job("analytic-ltsc", ("analytic",), {
            **models, "regime": "ltsc", "T": 4, "compression": "adaptive",
            "fading_S.dist": "rayleigh", "fading_S.rho_dB": j.db(0.0),
            "policy": j.policy(0.9, 0.5, 0.95), "quad.n": 16 if smoke else 256,
            "sweep.key": "P_dB",
            "sweep.values": ",".join(repr(j.db(v)) for v in (0.0, 5.0, 10.0))}),
    ]


_JOB_LISTS = {"mc": _mc, "design-ltsc": _design_ltsc, "design-stsc": _design_stsc,
             "point-fine": _point_fine}


def jobs(workload: str, seed: int, smoke: bool) -> list:
    """The jobs one iteration of `workload` runs, with configs drawn from `seed`."""
    return _JOB_LISTS[workload](_Jitter(seed), seed, smoke)
