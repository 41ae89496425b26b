"""Fuzz over the config grammar: every job ends in a defined exit code.

Configs are drawn across both regimes, T = 1..4, all three fading kinds with
zero atoms, dB values at +/-4000 and at the edges of the finite positive
doubles, zero backhaul and backhaul at and just below its cap, tiny
quadratures, and every csi, compression and backend choice.  Each config runs the analytic, simulate and optimize jobs
through `cli.main` on small budgets.  A job may succeed (0), reject the config
(2) or report a numerical failure (3); a traceback or any other code fails the
test, and a CSV written with exit 0 must hold only finite numbers.
"""

import csv
import math
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from relharq import cli


def mostly(common, rare):
    """common values four times as likely as each rare one, so that most
    drawn configs get past the parser and reach the evaluators"""
    return st.sampled_from(list(common) * 4 + list(rare))


# 10^(3082/10) is near the largest double, 10^(-3233/10) near the smallest
# subnormal; one step past each edge has no finite positive linear value
DB = mostly([-20.0, 0.0, 10.0], [-4000.0, -3240.0, -3230.0, 3082.0, 3090.0, 4000.0])
GAIN = mostly([0.0, 0.5, 1.0, 4.0], [1e-300])
RATE = mostly([0.0, 0.3, 1.0, 2.5], [50.0])
WORDS = {"bc", "sl", "true", "false"}


def fading(side):
    return st.fixed_dictionaries({
        f"fading_{side}.dist": st.sampled_from(["rayleigh", "rician", "pointmass"]),
        f"fading_{side}.rho_dB": DB,
        f"fading_{side}.K": st.sampled_from([0.0, 2.0, 50.0]),
        f"fading_{side}.value": GAIN,
    })


SWEEPS = mostly([{}], [{"sweep.key": "T", "sweep.values": "1,2"},
                       {"sweep.key": "P_dB", "sweep.values": "-4000,0"},
                       {"sweep.key": "fading_D.value", "sweep.values": "0,1"},
                       # values outside the schema bounds of their key
                       {"sweep.key": "Cmax", "sweep.values": "1,-1"},
                       {"sweep.key": "fading_D.K", "sweep.values": "-2"},
                       {"sweep.key": "fading_S.value", "sweep.values": "-1,1"}])

CONFIGS = st.builds(
    lambda base, d, s, sweep: {**base, **d, **s, **sweep},
    st.fixed_dictionaries({
        "regime": st.sampled_from(["ltsc", "stsc"]),
        "T": mostly([2], [1, 3, 4]),
        "P_dB": DB,
        "Cmax": st.sampled_from([0.0, 1.0, 510.9, 511.0]),
        "bc_layer2_interference": mostly(["false"], ["true"]),
        "compression": mostly(["constant"], ["adaptive"]),
        "csi": mostly(["none"], ["lcsit"]),
        "backend": st.sampled_from(["analytic", "mc"]),
        "policy": st.builds("{},{},{}".format, RATE, RATE, st.sampled_from([0.0, 0.5, 1.0])),
        "mc.sessions": st.integers(1, 500),
        "mc.batch": st.sampled_from([7, 256]),
        "quad.n": st.integers(2, 8),
        "grid.r_max": st.sampled_from([0.5, 2.0]),
        "grid.r_step": st.sampled_from([0.5, 1.0]),
        "grid.alpha_step": st.sampled_from([0.25, 1.0]),
        "grid.refine": st.integers(0, 1),
    }),
    fading("D"), fading("S"), SWEEPS)


def finite_cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return all(math.isfinite(float(part))
               for row in rows for cell in row if cell not in WORDS
               for part in cell.split(";"))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_jobs_exit_0_2_or_3_and_write_finite_csvs(values):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "exp.cfg").write_text(text, encoding="utf-8")
        for job in ("analytic", "simulate", "optimize"):
            code = cli.main([job, "--config", str(tmp / "exp.cfg"), "--out", str(tmp)])
            assert code in (0, 2, 3), (job, code, text)
            if code == 0:
                assert finite_cells(tmp / f"{job}.csv"), (job, text)
