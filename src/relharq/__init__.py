"""Layered HARQ over a fading relay channel with an out-of-band compressing relay.

Two-layer superposition transmission with incremental-redundancy HARQ, a
compress-and-forward relay on a rate-limited backhaul, closed-form outage
tables under frozen (ltsc) and per-slot (stsc) fading, an event-level Monte
Carlo simulator, and throughput optimizers for fixed and per-node policies.
"""

from .channel import (CompressionPolicy, RatePolicy, SystemConfig,
                      adaptive_gain, backhaul_usage, conservative_gain,
                      infer_s_hat, mutual_info, slot_threshold)
from .config import (ConfigError, ExperimentConfig, load_config,
                     parse_config_text)
from .fading import FadingModel, QuadratureGrid, quantize
from .ltsc import (p1_out, p2_dec, p2_out, probability_table, throughput_ltsc)
from .optimize import (GridSpec, OptimizationResult, optimize_lcsit,
                       optimize_no_lcsit, optimize_single_layer)
from .simulate import (EstimateReport, SessionOutcome, estimate,
                       simulate_session)
from .stsc import (stsc_p1_out_2, stsc_p2_dec_1, stsc_p2_out_2, stsc_table,
                   throughput_stsc)
from .tables import (NumericalError, ProbabilityTable, ThroughputReport,
                     expected_length)

__version__ = "0.1.0"

__all__ = [
    "CompressionPolicy", "ConfigError", "EstimateReport", "ExperimentConfig",
    "FadingModel", "GridSpec", "NumericalError", "OptimizationResult",
    "ProbabilityTable", "QuadratureGrid", "RatePolicy", "SessionOutcome",
    "SystemConfig", "ThroughputReport", "adaptive_gain", "backhaul_usage",
    "conservative_gain",
    "estimate", "expected_length", "infer_s_hat", "load_config", "mutual_info",
    "optimize_lcsit", "optimize_no_lcsit", "optimize_single_layer",
    "p1_out", "p2_dec", "p2_out", "parse_config_text", "probability_table",
    "quantize", "simulate_session", "slot_threshold", "stsc_p1_out_2",
    "stsc_p2_dec_1", "stsc_p2_out_2", "stsc_table", "throughput_ltsc",
    "throughput_stsc",
]
