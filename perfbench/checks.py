"""Output checks for one benchmark job.

Every job, at any seed:
  * exit code 0 and a CSV whose numeric cells are all finite;
  * probability columns (p1_out_k, p2_out_k, p2_dec_k) inside [0, 1];
  * dominance: the two-layer (bc) optimum is at least the single-layer (sl)
    one, and the per-node (lcsit) optimum at least the fixed-tuple one.
At the default seed, against the stored reference:
  * analytic, optimize and figure values within 1e-9 relative;
  * Monte Carlo eta within 4 combined standard errors.
"""

from __future__ import annotations

import csv
import math

REL_TOL = 1e-9       # analytic / optimize values against the reference
ABS_TOL = 1e-12      # floor for reference values that are exactly 0
PROB_TOL = 1e-12     # quadrature may overshoot [0, 1] by a few ulps
DOMINANCE_TOL = 1e-12
MC_SIGMAS = 4.0

# (larger, smaller) column pairs of the quartet figures
_FIGURE_ORDER = (("eta_bc_lcsit", "eta_sl_lcsit"), ("eta_bc_nolcsit", "eta_sl_nolcsit"),
                 ("eta_bc_lcsit", "eta_bc_nolcsit"), ("eta_sl_lcsit", "eta_sl_nolcsit"))


def parse_cell(text: str):
    """float, bool, list of floats (per-node policy cells) or the raw string."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        pass
    if ";" in text:
        try:
            return [float(p) for p in text.split(";")]
        except ValueError:
            pass
    return text


def read_csv(path) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise ValueError("empty CSV")
    return lines[0], [[parse_cell(c) for c in row] for row in lines[1:]]


def _numbers(cell) -> list:
    if isinstance(cell, (bool, str)):
        return []
    return cell if isinstance(cell, list) else [cell]


def items(kind: str, header: list, rows: list) -> int:
    """Work units of one job: sessions, optimized designs or analytic points."""
    if kind == "simulate":
        return int(sum(row[header.index("n_sessions")] for row in rows))
    if kind.startswith("figure"):
        return len(rows) * sum(1 for name in header if name.startswith("eta_"))
    return len(rows)


def invariant_errors(kind: str, header: list, rows: list) -> list:
    errors = []
    if not rows:
        errors.append("no rows")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            errors.append(f"row {r}: {len(row)} cells for {len(header)} columns")
            continue
        for name, cell in zip(header, row):
            values = _numbers(cell)
            if not all(math.isfinite(v) for v in values):
                errors.append(f"row {r}: {name} is not finite")
            elif name.startswith(("p1_out_", "p2_out_", "p2_dec_")) and "_se_" not in name:
                if not all(-PROB_TOL <= v <= 1.0 + PROB_TOL for v in values):
                    errors.append(f"row {r}: probability {name}={cell} outside [0, 1]")
    if errors:
        return errors
    if kind == "optimize":
        mode, eta = header.index("mode"), header.index("eta")
        by_point = {}
        for row in rows:
            by_point.setdefault(tuple(row[:mode]), {})[row[mode]] = row[eta]
        for point, modes in by_point.items():
            if set(modes) != {"bc", "sl"}:
                errors.append(f"modes {sorted(modes)} at {point}, expected bc and sl")
            elif modes["bc"] < modes["sl"] * (1 - DOMINANCE_TOL):
                errors.append(f"bc {modes['bc']!r} < sl {modes['sl']!r} at {point}")
    if kind.startswith("figure"):
        for big, small in _FIGURE_ORDER:
            if big in header and small in header:
                for row in rows:
                    hi, lo = row[header.index(big)], row[header.index(small)]
                    if hi < lo * (1 - DOMINANCE_TOL):
                        errors.append(f"{big} {hi!r} < {small} {lo!r} at {row[0]!r}")
    return errors


def reference_errors(kind: str, header: list, rows: list, ref: dict) -> list:
    if header != ref["header"]:
        return [f"header {header} differs from reference {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    errors = []
    if kind == "simulate":
        eta, se = header.index("eta"), header.index("eta_se")
        for r, (row, want) in enumerate(zip(rows, ref["rows"])):
            gate = MC_SIGMAS * math.hypot(row[se], want[se])
            if not abs(row[eta] - want[eta]) <= gate:
                errors.append(f"row {r}: eta {row[eta]!r} vs reference {want[eta]!r} "
                              f"exceeds {MC_SIGMAS:g} combined SE ({gate:.3g})")
        return errors
    for r, (row, want) in enumerate(zip(rows, ref["rows"])):
        for name, got, exp in zip(header, row, want):
            if isinstance(exp, (bool, str)):
                ok = got == exp
            else:
                g, e = _numbers(got), _numbers(exp)
                ok = len(g) == len(e) and all(
                    math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) for a, b in zip(g, e))
            if not ok:
                errors.append(f"row {r}: {name}={got!r}, reference {exp!r}")
    return errors
