"""Command-line jobs: analytic, simulate, optimize, validate, figure {2..6}.

Each job writes `<out>/<job>.csv` (RFC 4180, header row, CRLF) plus a sidecar
`<out>/<job>.config` holding the effective config in the input grammar, so any
row is regenerable from its sidecar.  NaN is never written: a non-finite cell
aborts with exit code 3.  Exit codes: 0 success, 2 config error, 3 numerical
failure (including a failed validation suite).

Figure jobs hard-code the scenario each figure caption fixes and accept a
config only for runtime knobs (grids, quadrature sizes, Monte Carlo budget,
sweep values); a key that would contradict the hard-coded scenario is rejected
unless it restates the same value, so a figure's own sidecar re-runs cleanly.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from .channel import CompressionPolicy, RatePolicy, SystemConfig
from .config import (ConfigError, ExperimentConfig, _parse_value, load_config,
                     parse_config_text)
from .fading import FadingModel
from .optimize import _Evaluator, _optimize
from .tables import NumericalError


# ---------------------------------------------------------------- artifacts

def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if not math.isfinite(x):
        raise NumericalError("non-finite value reached a CSV cell")
    return repr(x)


def _write_artifacts(outdir: str, job: str, header: list, rows: list,
                     ec: ExperimentConfig) -> str:
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{job}.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    with open(os.path.join(outdir, f"{job}.config"), "w", encoding="utf-8") as fh:
        fh.write(ec.render())
    return csv_path


_QUANTITIES = ("p1_out", "p2_out", "p2_dec")


def _table_header(T: int, with_se: bool = False) -> list:
    tags = ("", "_se") if with_se else ("",)
    return [f"{q}{tag}_{k}" for tag in tags for q in _QUANTITIES for k in range(1, T + 1)]


def _table_cells(table) -> list:
    """The table's entries, then its standard errors when it has them (Monte Carlo)."""
    se = table.std_errors or {}
    return [x for q in _QUANTITIES for x in getattr(table, q)] + \
        [x for q in _QUANTITIES if q in se for x in se[q]]


# ------------------------------------------------------------- job plumbing

def _evaluator(ec: ExperimentConfig, backend: str) -> _Evaluator:
    """The library evaluator of one sweep point; it rejects an unsupported scenario."""
    return _Evaluator(ec.system(), ec.compression(), backend, ec["quad.n"], ec.mc_kwargs())


def _write_sweep(ec: ExperimentConfig, outdir: str, job: str, header: list, point_rows,
                 lead: str | None = None) -> int:
    """Write <job>.csv from point_rows(point), the rows of one sweep point: the only
    loop over sweep points.  With a sweep, each row is led by the point's value of
    sweep.key, in a column named lead (default: the key), and each point prints
    one progress line."""
    key, values = ec["sweep.key"], ec.sweep_values()
    rows = [] if key else point_rows(ec)
    for i, value in enumerate(values, 1):
        started, point = time.perf_counter(), ec.with_value(key, value)
        rows += [[point[key]] + row for row in point_rows(point)]
        print(f"{job}: {key} = {point[key]} ({i}/{len(values)}) in "
              f"{time.perf_counter() - started:.2f} s", flush=True)
    path = _write_artifacts(outdir, job, ([lead or key] if key else []) + header, rows, ec)
    print(f"{job}: wrote {path} ({len(rows)} rows)")
    return 0


def _check_single_tuple_job(ec: ExperimentConfig) -> None:
    if ec["csi"] != "none":
        raise ConfigError("csi: per-node policy tables are not expressible in a flat config; "
                          "use csi = none (the optimize job handles csi = lcsit)")
    if ec["sweep.key"] == "T":
        raise ConfigError("sweep.key: sweeping T changes the table column set; "
                          "only the optimize job sweeps T")


def run_analytic(ec: ExperimentConfig, outdir: str) -> int:
    _check_single_tuple_job(ec)
    policy = ec.rate_policy()

    def point_rows(point):
        rep = _evaluator(point, "analytic").report(policy)
        return [[rep.eta, rep.expected_reward, rep.expected_length] + _table_cells(rep.table)]

    header = ["eta", "expected_reward", "expected_length"] + _table_header(ec["T"])
    return _write_sweep(ec, outdir, "analytic", header, point_rows)


def run_simulate(ec: ExperimentConfig, outdir: str) -> int:
    _check_single_tuple_job(ec)
    policy = ec.rate_policy()

    def point_rows(point):
        rep = _evaluator(point, "mc").report(policy)
        return [[rep.eta, rep.eta_std_error, rep.expected_reward, rep.expected_length,
                 rep.n_sessions, rep.master_seed, rep.adaptation_count]
                + _table_cells(rep.table)]

    header = ["eta", "eta_se", "expected_reward", "expected_length",
              "n_sessions", "master_seed", "adaptations"] + _table_header(ec["T"], with_se=True)
    return _write_sweep(ec, outdir, "simulate", header, point_rows)


def _policy_cells(policy: RatePolicy) -> list:
    if policy.mode == "lcsit":
        return [";".join(repr(float(x)) for x in np.atleast_1d(arr))
                for arr in (policy.r1, policy.r2, policy.alpha)]
    return [float(policy.r1), float(policy.r2), float(policy.alpha)]


def run_optimize(ec: ExperimentConfig, outdir: str) -> int:
    classes = ("bc-lcsit", "sl-lcsit") if ec["csi"] == "lcsit" else ("bc", "sl")

    def point_rows(point):
        ev = _evaluator(point, ec["backend"])
        optima = _optimize(ev, classes, point.grid_spec(), point.n_nodes())
        rows = []
        for mode, cls in zip(("bc", "sl"), classes):
            res = optima[cls]
            rep = ev.report(res.policy)
            rows.append([mode, res.eta] + _policy_cells(res.policy)
                        + [rep.expected_reward, rep.expected_length,
                           res.metadata.get("converged", True)])
        return rows

    header = ["mode", "eta", "r1", "r2", "alpha",
              "expected_reward", "expected_length", "converged"]
    return _write_sweep(ec, outdir, "optimize", header, point_rows)


# ---------------------------------------------------------------- validate

_VALIDATE_STSC_QUAD_N = 256  # validate's STSC rows ignore quad.n: their slack fits this n

def _rand_model(rng: np.random.Generator, allow_pointmass: bool) -> FadingModel:
    kinds = ("rayleigh", "rician", "pointmass") if allow_pointmass else \
        ("rayleigh", "rician")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "pointmass":
        return FadingModel("pointmass", point_value=float(rng.uniform(0.2, 4.0)))
    rho = 10.0 ** (rng.uniform(-5.0, 15.0) / 10.0)
    k = float(rng.uniform(0.0, 8.0)) if kind == "rician" else 0.0
    return FadingModel(kind, mean_power=rho, rician_k=k)


def _rand_system(rng: np.random.Generator, regime: str, T: int,
                 variant: bool = False) -> SystemConfig:
    model_d = _rand_model(rng, allow_pointmass=True)
    # a PointMass S with a continuous D makes exact-tie decode events float
    # unstable; only pair the atom with an atom
    model_s = _rand_model(rng, allow_pointmass=model_d.kind == "pointmass")
    return SystemConfig(power=10.0 ** (rng.uniform(-5.0, 10.0) / 10.0),
                        backhaul_capacity=float(rng.uniform(0.5, 4.0)),
                        max_rounds=T, model_d=model_d, model_s=model_s,
                        channel_regime=regime, bc_layer2_interference=variant)


def _rand_tuple(rng: np.random.Generator) -> RatePolicy:
    return RatePolicy.constant(float(rng.uniform(0.2, 2.5)),
                               float(rng.uniform(0.0, 1.5)),
                               float(rng.uniform(0.6, 0.98)))


def _validate_rows(ec: ExperimentConfig):
    """(suite, config_id, regime, variant, quantity, k, analytic, mc, sigma,
    gap, gate, status) rows for the oracle-equivalence report."""
    n_mc = ec["mc.sessions"]
    rng = np.random.default_rng(np.random.SeedSequence(ec["mc.seed"]))
    rows = []

    def reports(cfg, policy, quad_n):
        """(analytic table, MC report) of one random tuple under constant compression."""
        ana, mc = (_Evaluator(cfg, CompressionPolicy("constant"), backend, quad_n,
                              ec.mc_kwargs()).report(policy) for backend in ("analytic", "mc"))
        return ana.table, mc

    def compare(suite, config_id, cfg, quantity, k, analytic, est_p, est_se,
                slack=None):
        # sigma under the null: a zero-count estimate must not collapse the gate
        p0 = min(max(analytic, 0.0), 1.0)  # quadrature can overshoot [0,1] by ulps
        sigma = max(est_se, math.sqrt(p0 * (1.0 - p0) / n_mc))
        gap = abs(analytic - est_p)
        asserted = slack is not None
        gate = 4.0 * sigma + slack if asserted else ""
        status = ("pass" if gap <= gate else "fail") if asserted else "recorded"
        rows.append([suite, config_id, cfg.channel_regime,
                     cfg.bc_layer2_interference, quantity, k, analytic, est_p,
                     sigma, gap, gate, status])

    # exact suite: layer-1 outage chain under LTSC, full table under STSC
    for i in range(4):
        cfg = _rand_system(rng, "ltsc", T=int(rng.integers(1, 5)))
        policy = _rand_tuple(rng)
        table, rep = reports(cfg, policy, ec["quad.n"])
        for k in range(cfg.max_rounds):
            compare("exact", f"ltsc-{i}", cfg, "p1_out", k + 1,
                    float(table.p1_out[k]), float(rep.table.p1_out[k]),
                    rep.table.std_errors["p1_out"][k], slack=1e-9)
    for i in range(2):
        base = _rand_system(rng, "stsc", T=2)
        policy = _rand_tuple(rng)
        for variant in (False, True):
            cfg = SystemConfig(base.power, base.backhaul_capacity, 2,
                               base.model_d, base.model_s, "stsc", variant)
            table, rep = reports(cfg, policy, _VALIDATE_STSC_QUAD_N)
            for quantity, k, ana in (("p1_out", 2, float(table.p1_out[1])),
                                     ("p2_out", 2, float(table.p2_out[1])),
                                     ("p2_dec", 1, float(table.p2_dec[0]))):
                compare("exact", f"stsc-{i}", cfg, quantity, k,
                        ana, float(getattr(rep.table, quantity)[k - 1]),
                        rep.table.std_errors[quantity][k - 1],
                        slack=2e-4)  # covers the quadrature floor at that n

    # approximate suite: layer-2 lemmas hold for small leftover power abar*P
    def approx_config(i, abar_power, gated):
        power = 10.0 ** (rng.uniform(0.0, 6.0) / 10.0)
        alpha = 1.0 - abar_power / power
        cfg = _rand_system(rng, "ltsc", T=int(rng.integers(2, 5)))
        cfg = SystemConfig(power, cfg.backhaul_capacity, cfg.max_rounds,
                           cfg.model_d, cfg.model_s, "ltsc", False)
        policy = RatePolicy.constant(float(rng.uniform(0.3, 2.0)),
                                     float(rng.uniform(0.05, 0.6)), alpha)
        table, rep = reports(cfg, policy, ec["quad.n"])
        suite = "approx" if gated else "recorded"
        label = f"approx-{i}" if gated else f"recorded-{i}-abarP-{abar_power}"
        for quantity in ("p2_out", "p2_dec"):
            ana_all = getattr(table, quantity)
            for k in range(cfg.max_rounds):
                compare(suite, label, cfg, quantity, k + 1, float(ana_all[k]),
                        float(getattr(rep.table, quantity)[k]),
                        rep.table.std_errors[quantity][k],
                        slack=0.02 if gated else None)

    for i in range(3):
        approx_config(i, float(rng.uniform(0.01, 0.05)), gated=True)
    for abar_power in (0.2, 0.5):  # quantify, never assert, the regime break
        approx_config(0, abar_power, gated=False)
    return rows


def run_validate(ec: ExperimentConfig, outdir: str) -> int:
    header = ["suite", "config_id", "regime", "variant", "quantity", "k",
              "analytic", "mc", "sigma", "gap", "gate", "status"]
    rows = _validate_rows(ec)
    path = _write_artifacts(outdir, "validate", header, rows, ec)
    n_fail = sum(1 for row in rows if row[-1] == "fail")
    n_pass = sum(1 for row in rows if row[-1] == "pass")
    print(f"validate: wrote {path} ({n_pass} pass, {n_fail} fail, "
          f"{len(rows) - n_pass - n_fail} recorded)")
    if n_fail:
        print("validate: analytic/Monte-Carlo disagreement above gate",
              file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------- figures

# Runtime knobs shared by all figure jobs; every other scenario key is pinned
# by the figure's caption.  Coarser than the optimizer defaults: figures trade
# the last ~1% of eta for sweep runtime, and remain overridable via --config.
_FIGURE_KNOBS = {
    "quad.n": 32, "grid.r_max": 6.0, "grid.r_step": 0.1,
    "grid.alpha_step": 0.05, "grid.refine": 3, "mc.sessions": 200_000,
}

_FIGURE_OVERRIDABLE = frozenset([*_FIGURE_KNOBS, "grid.nodes", "mc.seed", "mc.batch",
                                  "mc.workers", "sweep.values", "out"])


def _figure_base(spec: dict, overrides: ExperimentConfig) -> ExperimentConfig:
    ec = parse_config_text("").with_values({
        **_FIGURE_KNOBS, **spec["params"], "sweep.key": spec["sweep_key"],
        "sweep.values": ",".join(repr(float(v)) for v in spec["sweep_default"])})
    for key in sorted(overrides.explicit):
        if key in _FIGURE_OVERRIDABLE:
            ec = ec.with_value(key, overrides[key])
        elif overrides[key] != ec[key]:
            raise ConfigError(
                f"{key}: fixed by the figure caption; only "
                f"{', '.join(sorted(_FIGURE_OVERRIDABLE))} may change")
    return ec


def _quartet_rows(point):
    """eta for (bc lcsit, sl lcsit, bc no-lcsit, sl no-lcsit) at one sweep point."""
    classes = ("bc-lcsit", "sl-lcsit", "bc", "sl")
    optima = _optimize(_evaluator(point, "analytic"), classes, point.grid_spec(),
                       point.n_nodes())
    return [[optima[c].eta for c in classes]]


def _figure_5_rows(point):
    """Adaptive vs constant relay compression at one Rician factor K.

    Tuples are optimized analytically per compression kind, then both optima
    are re-estimated by Monte Carlo with one common seed so the gap carries a
    confidence interval.
    """
    mc, analytic = [], []
    for kind in ("adaptive", "constant"):
        point_kind = point.with_value("compression", kind)
        res = _optimize(_evaluator(point_kind, "analytic"), ["bc"], point.grid_spec())["bc"]
        mc.append(_evaluator(point_kind, "mc").report(res.policy))
        analytic.append(res.eta)
    return [[rep.eta for rep in mc] + [rep.eta_std_error for rep in mc] + analytic]


def _figure_6_rows(point):
    """Frozen vs per-slot fading at one SNR, both links alike (rho_D = rho_S)."""
    point = point.with_value("fading_S.rho_dB", point["fading_D.rho_dB"])
    etas = []
    for regime in ("ltsc", "stsc"):
        optima = _optimize(_evaluator(point.with_value("regime", regime), "analytic"),
                           ("bc", "sl"), point.grid_spec())
        etas += [optima["bc"].eta, optima["sl"].eta]
    return [etas]


_QUARTET = ["eta_bc_lcsit", "eta_sl_lcsit", "eta_bc_nolcsit", "eta_sl_nolcsit"]

_FIGURES = {
    2: {"params": {"regime": "ltsc", "T": 2, "P_dB": 0.0, "Cmax": 1.0,
                   "fading_D.dist": "rician", "fading_D.K": 0.0,
                   "fading_S.dist": "rayleigh", "fading_S.rho_dB": 0.0},
        "sweep_key": "fading_D.rho_dB",
        "sweep_default": np.arange(-5.0, 20.1, 2.5),
        "header": ["rho_D_dB", *_QUARTET],  # throughput vs relay-link SNR
        "rows": _quartet_rows},
    3: {"params": {"regime": "ltsc", "T": 2, "P_dB": 0.0,
                   "fading_D.dist": "rician", "fading_D.K": 0.0,
                   "fading_D.rho_dB": 0.0,
                   "fading_S.dist": "rayleigh", "fading_S.rho_dB": 0.0},
        "sweep_key": "Cmax",
        "sweep_default": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0],
        "header": ["c_max", *_QUARTET],  # throughput vs backhaul capacity
        "rows": _quartet_rows},
    4: {"params": {"regime": "ltsc", "P_dB": 0.0, "Cmax": 1.0,
                   "fading_D.dist": "rician", "fading_D.K": 0.0,
                   "fading_D.rho_dB": 10.0,
                   "fading_S.dist": "rayleigh", "fading_S.rho_dB": 0.0},
        "sweep_key": "T",
        "sweep_default": [1, 2, 3, 4, 5, 6],
        "header": ["T", *_QUARTET],  # throughput vs max transmissions
        "rows": _quartet_rows},
    5: {"params": {"regime": "ltsc", "T": 2, "P_dB": 0.0, "Cmax": 2.0,
                   "fading_D.dist": "rician", "fading_D.rho_dB": 20.0,
                   "fading_S.dist": "rayleigh", "fading_S.rho_dB": 20.0},
        "sweep_key": "fading_D.K",
        "sweep_default": [0.0, 2.0, 5.0, 10.0],
        "header": ["K", "eta_adaptive", "eta_constant", "se_adaptive", "se_constant",
                   "eta_adaptive_analytic", "eta_constant_analytic"],
        "rows": _figure_5_rows},
    6: {"params": {"T": 2, "P_dB": 0.0, "Cmax": 5.0,
                   "fading_D.dist": "rician", "fading_D.K": 0.0,
                   "fading_S.dist": "rayleigh"},
        "sweep_key": "fading_D.rho_dB",
        "sweep_default": np.arange(-5.0, 20.1, 2.5),
        "header": ["rho_dB", "eta_bc_ltsc", "eta_sl_ltsc", "eta_bc_stsc", "eta_sl_stsc"],
        "rows": _figure_6_rows},
}


def run_figure(number: int, overrides: ExperimentConfig, outdir: str | None) -> int:
    spec = _FIGURES[number]
    ec = _figure_base(spec, overrides)
    lead, *header = spec["header"]
    return _write_sweep(ec, outdir or ec["out"], f"figure{number}", header, spec["rows"],
                        lead)


# --------------------------------------------------------------- entrypoint

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relharq",
        description="Throughput analysis for layered HARQ over a relay channel "
                    "with an out-of-band compressing relay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required):
        sp.add_argument("--config", required=config_required,
                        help="flat key=value experiment config")
        sp.add_argument("--out", help="output directory (default: `out` key)")
        sp.add_argument("--seed", type=int, help="override mc.seed")
        sp.add_argument("--sessions", type=int, help="override mc.sessions")
        sp.add_argument("--workers", type=int, help="override mc.workers")

    for name, text in (("analytic", "probability table and throughput at a tuple"),
                       ("simulate", "Monte Carlo estimate at a tuple"),
                       ("optimize", "best tuple (bc and sl rows)")):
        add_common(sub.add_parser(name, help=text), config_required=True)
    add_common(sub.add_parser("validate",
                              help="analytic vs Monte Carlo oracle report"),
               config_required=False)
    fig = sub.add_parser("figure", help="reproduce a results figure")
    fig.add_argument("number", type=int, choices=sorted(_FIGURES))
    add_common(fig, config_required=False)
    return parser


def _apply_cli_overrides(ec: ExperimentConfig, args) -> ExperimentConfig:
    for key, value in (("mc.seed", args.seed), ("mc.sessions", args.sessions),
                       ("mc.workers", args.workers)):
        if value is not None:
            ec = ec.with_value(key, _parse_value(key, str(value)))
    return ec


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ec = parse_config_text("") if args.config is None else load_config(args.config)
        ec = _apply_cli_overrides(ec, args)
        if args.command == "figure":  # ec's explicit keys override the caption's knobs
            return run_figure(args.number, ec, args.out)
        job = {"analytic": run_analytic, "simulate": run_simulate,
               "optimize": run_optimize, "validate": run_validate}[args.command]
        return job(ec, args.out or ec["out"])
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
