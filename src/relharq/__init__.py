"""Layered HARQ over a fading relay channel with an out-of-band compressing relay.

Two-layer superposition transmission with incremental-redundancy HARQ, a
compress-and-forward relay on a rate-limited backhaul, closed-form outage
tables under frozen (ltsc) and per-slot (stsc) fading, an event-level Monte
Carlo simulator, and throughput optimizers for fixed and per-node policies.
"""

from .channel import (CompressionPolicy, RatePolicy, SystemConfig,
                      backhaul_usage, check_supported, conservative_gain,
                      infer_s_hat, mutual_info, slot_threshold, threshold_offset)
from .config import (ConfigError, ExperimentConfig, GridSpec, load_config,
                     parse_config_text)
from .fading import FadingModel, QuadratureGrid, quantize
from .optimize import (OptimizationResult, optima, optimize_lcsit, optimize_no_lcsit,
                       throughput)
from .simulate import (EstimateReport, SessionOutcome, estimate,
                       simulate_session)
from .tables import (NumericalError, ProbabilityTable, ThroughputReport,
                     reward_length)

__version__ = "0.1.0"

__all__ = [
    "CompressionPolicy", "ConfigError", "EstimateReport", "ExperimentConfig",
    "FadingModel", "GridSpec", "NumericalError", "OptimizationResult",
    "ProbabilityTable", "QuadratureGrid", "RatePolicy", "SessionOutcome",
    "SystemConfig", "ThroughputReport", "backhaul_usage", "check_supported",
    "conservative_gain", "estimate", "infer_s_hat", "load_config",
    "mutual_info", "optima", "optimize_lcsit", "optimize_no_lcsit",
    "parse_config_text", "quantize", "reward_length", "simulate_session",
    "slot_threshold", "threshold_offset", "throughput",
]
