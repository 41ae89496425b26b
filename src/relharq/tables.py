"""Result containers shared by the analytic and Monte Carlo paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """A result that should be finite is not, a runtime invariant of a result
    does not hold, or a validation suite failed."""


@dataclass(frozen=True)
class ProbabilityTable:
    """p1_out(k), p2_out(k), p2_dec(k) for k = 1..T, with provenance."""

    p1_out: np.ndarray
    p2_out: np.ndarray
    p2_dec: np.ndarray
    provenance: str = "analytic"          # analytic | monte_carlo
    n_sessions: int | None = None         # monte_carlo only
    std_errors: dict | None = None        # monte_carlo only: same keys, per-k arrays

    @property
    def T(self) -> int:
        return len(self.p1_out)

    def total_probability_gap(self) -> float:
        """|sum_k p2_dec(k) + p2_out(T) - 1|; zero up to float error by construction."""
        return abs(float(np.sum(self.p2_dec) + self.p2_out[-1] - 1.0))


@dataclass(frozen=True)
class ThroughputReport:
    """Renewal-reward throughput eta = E[R]/E[L] plus the table behind it."""

    eta: float
    expected_reward: float
    expected_length: float
    table: ProbabilityTable
    config_echo: dict = field(default_factory=dict)


def expected_length(p2_dec: np.ndarray, p2_out_T: float, T: int) -> float:
    """E[L] = sum_{t<T} t p2_dec(t) + T (p2_dec(T) + p2_out(T))."""
    t = np.arange(1, T)
    return float(t @ p2_dec[: T - 1] + T * (p2_dec[T - 1] + p2_out_T))
