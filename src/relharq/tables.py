"""Result containers shared by the analytic and Monte Carlo paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid or unsupported experiment config; the message names the offending key."""


class NumericalError(RuntimeError):
    """A result that should be finite is not, a runtime invariant of a result
    does not hold, or a validation suite failed."""


@dataclass(frozen=True)
class ProbabilityTable:
    """p1_out(k), p2_out(k), p2_dec(k) for k = 1..T."""

    p1_out: np.ndarray
    p2_out: np.ndarray
    p2_dec: np.ndarray
    std_errors: dict | None = None        # monte_carlo only: same keys, per-k arrays

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


def reward_length(r1, r2, p1_out, p2_out):
    """E[R] = r1 (1 - p1_out(T)) + r2 (1 - p2_out(T)) and E[L] = 1 + sum_{t<T} p2_out(t)
    (slot t+1 is sent iff layer 2 is out after slot t) from (..., T) tables, the rates
    broadcasting against their leading axes: the renewal-reward pair behind every eta."""
    T = p1_out.shape[-1]
    reward = (np.asarray(r1, dtype=float) * (1.0 - p1_out[..., T - 1])
              + np.asarray(r2, dtype=float) * (1.0 - p2_out[..., T - 1]))
    return reward, 1.0 + p2_out[..., : T - 1].sum(axis=-1)
