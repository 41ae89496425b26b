"""Golden outputs: pinned CLI jobs whose CSV bytes must never move.

Each job below runs through `relharq.cli.main` and its CSV is compared, by
sha256, with the digest recorded in `tests/golden/SHA256SUMS`.  The jobs are
small but reach every branch of the analytic evaluators: LTSC tables at T=3
with constant and adaptive compression, the per-node (lcsit) optimizer, STSC
tables with and without the layer-2 interference variant, the STSC optimizer
over (r1, r2) blocks, and point-mass S links under both regimes.

A change that moves any byte must name the change and its reason.  Re-record
a digest only then, from the root of a checkout, naming the jobs to record:

    PYTHONPATH=src python tests/test_golden.py --record figure3 figure4

Only the named jobs are run; every other line of SHA256SUMS is kept as it is,
so adding a job cannot silently re-record a digest that has moved.  A bare
`--record` re-records every job.
"""

import hashlib
import pathlib
import sys

import pytest

from relharq import cli

SUMS = pathlib.Path(__file__).with_name("golden") / "SHA256SUMS"

_RICIAN_D = {"fading_D.dist": "rician", "fading_D.rho_dB": 6.0, "fading_D.K": 2.0}
_RICIAN_S = {"fading_S.dist": "rician", "fading_S.rho_dB": 0.0, "fading_S.K": 1.0}
_POINT_S = {"fading_S.dist": "pointmass", "fading_S.value": 1.3}
_COARSE = {"quad.n": 24, "grid.r_max": 3.0, "grid.r_step": 0.25,
           "grid.alpha_step": 0.25, "grid.refine": 2}
_P_SWEEP = {"sweep.key": "P_dB", "sweep.values": "-3.0,0.0,5.0,10.0,20.0"}

# name -> (subcommand words, config keys); the CSV is named after the words
JOBS = {
    "ltsc-analytic-constant": (("analytic",), {
        "regime": "ltsc", "T": 3, "Cmax": 1.5, "compression": "constant",
        **_RICIAN_D, **_RICIAN_S, "policy": "0.9,0.5,0.95", "quad.n": 48, **_P_SWEEP}),
    "ltsc-analytic-adaptive": (("analytic",), {
        "regime": "ltsc", "T": 3, "Cmax": 1.5, "compression": "adaptive",
        **_RICIAN_D, **_RICIAN_S, "policy": "0.9,0.5,0.95", "quad.n": 48, **_P_SWEEP}),
    "ltsc-optimize-lcsit": (("optimize",), {
        "regime": "ltsc", "T": 3, "Cmax": 1.5, "compression": "adaptive", "csi": "lcsit",
        **_RICIAN_D, **_RICIAN_S, **_COARSE, "grid.nodes": 6}),
    "ltsc-analytic-pointmass-s": (("analytic",), {
        "regime": "ltsc", "T": 3, "Cmax": 1.5, "compression": "adaptive",
        **_RICIAN_D, **_POINT_S, "policy": "0.9,0.5,0.95", "quad.n": 48, **_P_SWEEP}),
    "stsc-analytic": (("analytic",), {
        "regime": "stsc", "T": 2, "Cmax": 1.5, **_RICIAN_D, **_RICIAN_S,
        "policy": "0.9,0.5,0.95", "quad.n": 40, **_P_SWEEP}),
    "stsc-analytic-interference": (("analytic",), {
        "regime": "stsc", "T": 2, "Cmax": 1.5, "bc_layer2_interference": "true",
        **_RICIAN_D, **_RICIAN_S, "policy": "0.9,0.5,0.95", "quad.n": 40, **_P_SWEEP}),
    "stsc-analytic-pointmass-s": (("analytic",), {
        "regime": "stsc", "T": 2, "Cmax": 1.5, **_RICIAN_D, **_POINT_S,
        "policy": "0.9,0.5,0.95", "quad.n": 40, **_P_SWEEP}),
    "ltsc-optimize-constant-t4": (("optimize",), {
        "regime": "ltsc", "T": 4, "Cmax": 1.0, "compression": "constant",
        **_RICIAN_D, "fading_S.dist": "rayleigh", "fading_S.rho_dB": 3.0, **_COARSE}),
    "figure2": (("figure", "2"), {
        **_COARSE, "sweep.key": "fading_D.rho_dB", "sweep.values": "0.0,15.0"}),
    "stsc-optimize": (("optimize",), {
        "regime": "stsc", "T": 2, "Cmax": 5.0, "fading_D.dist": "rician",
        "fading_D.rho_dB": 10.0, "fading_D.K": 0.0, "fading_S.dist": "rayleigh",
        "fading_S.rho_dB": 10.0, **_COARSE}),
    "figure3": (("figure", "3"), {
        **_COARSE, "sweep.key": "Cmax", "sweep.values": "0.0,1.5"}),
    "figure4": (("figure", "4"), {
        **_COARSE, "sweep.key": "T", "sweep.values": "1,2,3"}),
    "figure6": (("figure", "6"), {
        **_COARSE, "sweep.key": "fading_D.rho_dB", "sweep.values": "0.0,10.0"}),
    "ltsc-optimize-mc": (("optimize",), {
        "regime": "ltsc", "T": 2, "Cmax": 1.0, "backend": "mc", "mc.sessions": 400,
        "mc.seed": 11, **_RICIAN_D, "fading_S.dist": "rayleigh", "fading_S.rho_dB": 3.0,
        **_COARSE}),
}


def run_job(name: str, workdir: pathlib.Path) -> str:
    """Run one pinned job in `workdir`; return the sha256 of its CSV."""
    words, keys = JOBS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    out = workdir / name
    code = cli.main([*words, "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"golden job {name} exited {code}")
    return hashlib.sha256((out / f"{''.join(words)}.csv").read_bytes()).hexdigest()


def recorded_digests() -> dict:
    digests = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def test_every_job_has_a_digest():
    assert sorted(recorded_digests()) == sorted(JOBS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_csv_bytes_match_golden_digest(name, tmp_path):
    assert run_job(name, tmp_path) == recorded_digests()[name]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not set(sys.argv[2:]) <= set(JOBS):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [JOB...]\n"
                 f"jobs: {' '.join(sorted(JOBS))}")
    import tempfile

    names = sys.argv[2:] or sorted(JOBS)
    digests = recorded_digests() if sys.argv[2:] and SUMS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests.update({name: run_job(name, pathlib.Path(tmp)) for name in names})
    SUMS.write_text("".join(f"{digests[name]}  {name}\n" for name in sorted(digests)),
                    encoding="utf-8")
    print(f"recorded {len(names)} of {len(digests)} digests in {SUMS}")
