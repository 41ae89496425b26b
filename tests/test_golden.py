"""Golden outputs: pinned CLI jobs whose CSV bytes must never move.

Each job below runs through `relharq.cli.main` and its CSV is compared, by
sha256, with the digest recorded in `tests/golden/SHA256SUMS`.  The jobs are
small but reach every branch of the analytic evaluators: LTSC tables at T=3
with constant and adaptive compression, the per-node (lcsit) optimizer, STSC
tables with and without the layer-2 interference variant, the STSC optimizer
over (r1, r2) blocks, point-mass S links under both regimes, and the Monte
Carlo jobs (`simulate` under both regimes, figure 5's re-estimates, and the
`validate` suite's analytic-vs-MC report).

Each job's CSV is stored next to SHA256SUMS as `<job>.csv`.  To see how far
a change moved a job, run from the root of a checkout

    PYTHONPATH=src python tests/test_golden.py --diff figure6 stsc-optimize

which prints, per changed column, the largest absolute, relative and ulp
distance and how many cells moved, and lists every changed optimizer tuple
(r1, r2, alpha); a bare `--diff` covers every job.  The sha256 check stays the
pass/fail gate.

A change that moves any byte must name the change and its reason.  Re-record
a job only then, naming the jobs to record:

    PYTHONPATH=src python tests/test_golden.py --record figure3 figure4

Only the named jobs are run; every other line of SHA256SUMS and every other
stored CSV is kept as it is, so adding a job cannot silently re-record one
that has moved.  A bare `--record` re-records every job.
"""

import csv
import hashlib
import io
import pathlib
import sys

import numpy as np
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
        **_RICIAN_D, **_RICIAN_S, **_COARSE}),
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
    "ltsc-simulate-adaptive": (("simulate",), {
        "regime": "ltsc", "T": 3, "Cmax": 1.5, "compression": "adaptive",
        **_RICIAN_D, **_RICIAN_S, "policy": "0.9,0.5,0.95", "mc.sessions": 5000,
        "mc.seed": 3, **_P_SWEEP}),
    "stsc-simulate-rician-s": (("simulate",), {
        "regime": "stsc", "T": 2, "Cmax": 1.5, **_RICIAN_D, **_RICIAN_S,
        "policy": "0.9,0.5,0.95", "mc.sessions": 5000, "mc.seed": 3, **_P_SWEEP}),
    "figure5": (("figure", "5"), {
        **_COARSE, "mc.sessions": 3000, "sweep.key": "fading_D.K", "sweep.values": "0.0,5.0"}),
    "validate": (("validate",), {"mc.seed": 11, "mc.sessions": 4000}),
}




def run_job(name: str, workdir: pathlib.Path) -> bytes:
    """Run one pinned job in `workdir`; return the bytes of its CSV."""
    words, keys = JOBS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    out = workdir / name
    code = cli.main([*words, "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"golden job {name} exited {code}")
    return (out / f"{''.join(words)}.csv").read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digests() -> dict:
    digests = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def stored_csv(name: str) -> bytes:
    return SUMS.with_name(f"{name}.csv").read_bytes()


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _floats(cell: str):
    """The numbers of one cell (a per-node cell holds several, `;`-separated), or None."""
    try:
        return np.array([float(v) for v in cell.split(";")])
    except ValueError:
        return None


def _ordered(x: np.ndarray) -> list:
    """Doubles mapped to integers so that adjacent doubles differ by 1."""
    return [v if v >= 0 else -(v & 0x7FFF_FFFF_FFFF_FFFF) for v in x.view(np.int64).tolist()]


def _distance(x: str, y: str) -> tuple:
    """(abs, rel, ulps) between two cells; inf unless both are finite numbers alike."""
    fx, fy = _floats(x), _floats(y)
    if fx is None or fy is None or fx.shape != fy.shape or not np.isfinite([fx, fy]).all():
        return np.inf, np.inf, np.inf
    dist = np.abs(fx - fy)
    scale = np.maximum(np.abs(fx), np.abs(fy))
    rel = np.divide(dist, scale, out=np.zeros_like(dist), where=dist > 0)
    ulps = max(abs(u - v) for u, v in zip(_ordered(fx), _ordered(fy)))
    return float(dist.max()), float(rel.max()), ulps


def diff_report(name: str, old: bytes, new: bytes) -> list:
    """Lines saying how far `new` moved from the golden `old`, column by column.

    Each changed column gives its largest absolute, relative and ulp distance
    and how many cells moved; a changed optimizer tuple (r1, r2, alpha) is
    listed row by row.  sha256 stays the pass/fail gate; this only measures.
    """
    if old == new:
        return [f"{name}: unchanged"]
    a, b = _rows(old), _rows(new)
    if a[0] != b[0] or len(a) != len(b):
        return [f"{name}: header or row count changed: {a[0]} x {len(a) - 1} rows -> "
                f"{b[0]} x {len(b) - 1} rows"]
    lines = [f"{name}: moved"]
    for col, key in enumerate(a[0]):
        moved = [(x[col], y[col]) for x, y in zip(a[1:], b[1:]) if x[col] != y[col]]
        if moved:
            dist, rel, ulps = (max(t) for t in zip(*(_distance(x, y) for x, y in moved)))
            lines.append(f"  {key}: {len(moved)}/{len(a) - 1} cells, max abs {dist:.3g}, "
                         f"max rel {rel:.3g}, max ulps {ulps}")
    if {"r1", "r2", "alpha"} <= set(a[0]):
        cols = [a[0].index(k) for k in ("r1", "r2", "alpha")]
        for row, (x, y) in enumerate(zip(a[1:], b[1:]), start=1):
            if [x[c] for c in cols] != [y[c] for c in cols]:
                lines.append(f"  tuple changed in row {row} ({x[0]}): "
                             f"{', '.join(x[c] for c in cols)} -> {', '.join(y[c] for c in cols)}")
    return lines


def test_every_job_has_a_digest():
    assert sorted(recorded_digests()) == sorted(JOBS)
    assert sorted(p.stem for p in SUMS.parent.glob("*.csv")) == sorted(JOBS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stored_csv_matches_its_digest(name):
    assert sha256(stored_csv(name)) == recorded_digests()[name]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_csv_bytes_match_golden_digest(name, tmp_path):
    assert sha256(run_job(name, tmp_path)) == recorded_digests()[name]


def test_diff_measures_moved_cells_and_tuples():
    old = b"mode,eta,r1,r2,alpha\nbc,0.5,1.0,0.5,0.25\nsl,0.25,2.0,0.0,1.0\n"
    assert diff_report("job", old, old) == ["job: unchanged"]
    new = b"mode,eta,r1,r2,alpha\nbc,0.5000000000000001,1.0,0.5,0.25\nsl,0.25,2.25,0.0,1.0\n"
    lines = diff_report("job", old, new)
    assert lines[0] == "job: moved"
    assert "  eta: 1/2 cells, max abs 1.11e-16, max rel 2.22e-16, max ulps 1" in lines
    assert "  r1: 1/2 cells, max abs 0.25, max rel 0.111, max ulps 562949953421312" in lines
    assert lines[-1] == "  tuple changed in row 2 (sl): 2.0, 0.0, 1.0 -> 2.25, 0.0, 1.0"
    # ulps across zero count the doubles in between
    assert _distance("-5e-324", "5e-324")[2] == 2
    assert _distance("1.0", "nan") == (np.inf, np.inf, np.inf)


if __name__ == "__main__":
    mode, names = sys.argv[1:2], sys.argv[2:]
    if mode not in (["--record"], ["--diff"]) or not set(names) <= set(JOBS):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record|--diff [JOB...]\n"
                 f"jobs: {' '.join(sorted(JOBS))}")
    import tempfile

    names = names or sorted(JOBS)
    with tempfile.TemporaryDirectory() as tmp:
        csvs = {name: run_job(name, pathlib.Path(tmp) / name) for name in names}
    if mode == ["--diff"]:
        for name in names:
            print("\n".join(diff_report(name, stored_csv(name), csvs[name])))
        sys.exit(0)
    digests = recorded_digests() if sys.argv[2:] and SUMS.exists() else {}
    for name, data in csvs.items():
        digests[name] = sha256(data)
        SUMS.with_name(f"{name}.csv").write_bytes(data)
    SUMS.write_text("".join(f"{digests[name]}  {name}\n" for name in sorted(digests)),
                    encoding="utf-8")
    print(f"recorded {len(names)} of {len(digests)} digests and CSVs in {SUMS.parent}")
