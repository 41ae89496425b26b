"""Config grammar, CLI exit codes, and artifact round-trips."""

import csv
import tracemalloc

import numpy as np
import pytest

from relharq import cli, optimize
from relharq.channel import RatePolicy
from relharq.config import (ConfigError, db_to_linear, load_config,
                            parse_config_text)
from relharq.optimize import throughput

COARSE = """
regime = ltsc
T = 2
P_dB = 0.0
Cmax = 1.0
fading_D.dist = rician
fading_D.rho_dB = 5.0
fading_D.K = 1.0
fading_S.dist = rayleigh
fading_S.rho_dB = 0.0
policy = 1.0,0.2,0.9
mc.sessions = 8000
quad.n = 24
grid.r_max = 3.0
grid.r_step = 0.25
grid.alpha_step = 0.25
grid.refine = 1
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestConfigGrammar:
    def test_defaults_and_roundtrip(self):
        ec = parse_config_text("")
        assert ec["regime"] == "ltsc" and ec["T"] == 2
        assert ec["mc.sessions"] == 100_000 and ec["out"] == "results"
        again = parse_config_text(ec.render())
        assert again == ec
        assert again.render() == ec.render()
        # the echoed defaults, byte for byte, whichever module owns each one
        assert ec.render() == "\n".join([
            "regime = ltsc", "T = 2", "P_dB = 0.0", "Cmax = 1.0",
            "fading_D.dist = rician", "fading_D.rho_dB = 0.0", "fading_D.K = 0.0",
            "fading_D.value = 1.0", "fading_S.dist = rayleigh", "fading_S.rho_dB = 0.0",
            "fading_S.K = 0.0", "fading_S.value = 1.0", "bc_layer2_interference = false",
            "compression = constant", "csi = none", "policy = optimize",
            "backend = analytic", "mc.sessions = 100000", "mc.seed = 0",
            "mc.batch = 65536", "mc.workers = 1", "quad.n = 64", "grid.r_max = 6.0",
            "grid.r_step = 0.05", "grid.alpha_step = 0.02", "grid.refine = 3",
            "sweep.key = ", "sweep.values = ", "out = results", ""])

    def test_comments_blanks_and_spacing(self):
        ec = parse_config_text("# header\n\n  T =  3 \n regime=stsc\n")
        assert ec["T"] == 3 and ec["regime"] == "stsc"

    @pytest.mark.parametrize("line, fragment", [
        ("Tmax = 2", "unknown key"),
        ("T = 2\nT = 3", "duplicate"),
        ("regime = fast", "bad value"),
        ("P_dB = much", "bad value"),
        ("Cmax = -1", "outside allowed range"),
        ("mc.sessions = 0", "outside allowed range"),
        ("mc.batch = 1048577", "mc.batch: value 1048577 outside allowed range"),
        ("mc.workers = 65", "mc.workers: value 65 outside allowed range"),
        ("just a line", "expected `key = value`"),
        ("policy = 1.0,0.2", "bad value"),
        ("policy = 1.0,0.2,1.5", "bad value"),
        ("sweep.values = 1,2", "set sweep.key"),
        ("sweep.key = P_dB", "required when sweep.key"),
        ("sweep.key = out\nsweep.values = 1", "not sweepable"),
        ("sweep.key = T\nsweep.values = 1.5,2", "integers"),
        ("sweep.key = T\nsweep.values = 0,2", "outside allowed range"),
        ("sweep.key = Cmax\nsweep.values = 1,-1", "outside allowed range"),
        ("sweep.key = P_dB\nsweep.values = 0,nan", "must be finite"),
    ])
    def test_rejections_name_the_key(self, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(line)

    def test_policy_tuple_forms(self):
        assert parse_config_text("").policy_tuple() is None
        ec = parse_config_text("policy = 1.25, 0.5, 0.75")
        assert ec.policy_tuple() == (1.25, 0.5, 0.75)
        pol = ec.rate_policy()
        assert isinstance(pol, RatePolicy) and float(pol.alpha) == 0.75
        with pytest.raises(ConfigError, match="explicit"):
            parse_config_text("").rate_policy()

    def test_db_enters_only_at_the_boundary(self):
        ec = parse_config_text(
            "P_dB = 3.0\nfading_D.rho_dB = 10.0\nfading_S.dist = pointmass\n"
            "fading_S.value = 0.5\n")
        cfg = ec.system()
        assert cfg.power == pytest.approx(db_to_linear(3.0))
        assert cfg.model_d.mean_power == pytest.approx(10.0)
        assert cfg.model_s.kind == "pointmass" and cfg.model_s.point_value == 0.5

    def test_sweep_points_bind_values(self):
        ec = parse_config_text("sweep.key = Cmax\nsweep.values = 0.5,2.0\n")
        assert ec.sweep_values() == [0.5, 2.0]
        bound = ec.with_value("Cmax", 2.0)
        assert bound["Cmax"] == 2.0 and bound["T"] == ec["T"]


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "bogus = 1\n")
        assert cli.main(["analytic", "--config", path]) == 2

    def test_zero_sessions_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, COARSE)
        assert cli.main(["simulate", "--config", path, "--sessions", "0"]) == 2

    @pytest.mark.parametrize("key, value", [("mc.batch", 1 << 30), ("mc.workers", 65)])
    def test_mc_knob_above_its_cap_is_config_error(self, tmp_path, capsys, key, value):
        # refused before any workspace or thread exists
        path = write_cfg(tmp_path, COARSE + f"{key} = {value}\n")
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        if key == "mc.workers":
            path = write_cfg(tmp_path, COARSE)
            assert cli.main(["simulate", "--config", path, "--workers", str(value),
                             "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err

    def test_one_session_is_config_error(self, tmp_path, capsys):
        # one session has no standard error, which the CSV cannot carry
        path = write_cfg(tmp_path, COARSE.replace("mc.sessions = 8000", "mc.sessions = 1"))
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "mc.sessions" in capsys.readouterr().err
        path = write_cfg(tmp_path, COARSE)
        assert cli.main(["simulate", "--config", path, "--sessions", "1",
                         "--out", str(tmp_path)]) == 2
        assert "mc.sessions" in capsys.readouterr().err

    def test_analytic_needs_explicit_tuple(self, tmp_path):
        path = write_cfg(tmp_path, "policy = optimize\n")
        assert cli.main(["analytic", "--config", path,
                         "--out", str(tmp_path)]) == 2

    def test_single_tuple_jobs_reject_lcsit(self, tmp_path):
        path = write_cfg(tmp_path, "policy = 1.0,0.2,0.9\ncsi = lcsit\n")
        assert cli.main(["analytic", "--config", path,
                         "--out", str(tmp_path)]) == 2

    def test_stsc_analytics_need_two_rounds(self, tmp_path):
        path = write_cfg(tmp_path, "regime = stsc\nT = 3\npolicy = 1.0,0.2,0.9\n")
        assert cli.main(["analytic", "--config", path,
                         "--out", str(tmp_path)]) == 2

    def test_stsc_quadrature_past_the_r1_budget_is_config_error(self, tmp_path, capsys):
        # one r1 row of the stsc tables at n = 100000 would be a 74.5 GiB array;
        # the job must refuse it before forming any array
        path = write_cfg(tmp_path, "regime = stsc\npolicy = 1.0,0.2,0.9\nquad.n = 100000\n")
        tracemalloc.start()
        try:
            code = cli.main(["analytic", "--config", path, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "quad.n" in capsys.readouterr().err
        assert peak < 16e6

    @pytest.mark.parametrize("db", ["4000", "-4000"])
    @pytest.mark.parametrize("key", ["P_dB", "fading_D.rho_dB", "fading_S.rho_dB"])
    def test_db_without_finite_positive_power_is_config_error(self, tmp_path, capsys,
                                                               key, db):
        path = write_cfg(tmp_path, f"policy = 1.0,0.2,0.9\n{key} = {db}\n")
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["nan,0.5,0.9", "inf,0.5,0.9", "0.5,nan,0.9"],
                             ids=["nan-r1", "inf-r1", "nan-r2"])
    def test_non_finite_rate_is_config_error(self, tmp_path, capsys, policy):
        # a NaN or infinite rate would reach the CSV as a non-finite cell
        path = write_cfg(tmp_path, f"policy = {policy}\n")
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 2
        assert "policy" in capsys.readouterr().err

    @pytest.mark.parametrize("db", ["4000", "-4000"])
    def test_swept_db_without_finite_positive_power_is_config_error(self, tmp_path, db):
        path = write_cfg(tmp_path, "policy = 1.0,0.2,0.9\nsweep.key = P_dB\n"
                                   f"sweep.values = 0.0,{db}\n")
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("job, key, value, s_dist", [
        ("analytic", "Cmax", "-1.0", "rayleigh"),
        ("analytic", "fading_D.K", "-2", "rayleigh"),
        ("optimize", "fading_S.value", "-1", "pointmass"),
    ])
    def test_swept_value_outside_schema_bounds_is_config_error(self, tmp_path, capsys,
                                                               job, key, value, s_dist):
        # a sweep value meets the rule a config line meets, before any point runs
        text = COARSE.replace("fading_S.dist = rayleigh", f"fading_S.dist = {s_dist}")
        path = write_cfg(tmp_path, text + f"sweep.key = {key}\nsweep.values = 1.0,{value}\n")
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"sweep.values: {key}: value {float(value)!r} outside allowed range" in err

    def test_cmax_past_the_backhaul_overflow_is_config_error(self, tmp_path, capsys):
        # beta = 2^(2 Cmax) - 1 overflows a double from Cmax = 512 on, so the
        # schema stops at 511, in a config line and in a Cmax sweep alike
        assert parse_config_text("Cmax = 511\n")["Cmax"] == 511.0
        for regime in ("ltsc", "stsc"):
            text = COARSE.replace("regime = ltsc", f"regime = {regime}")
            for bad in ("Cmax = 1e6", "Cmax = 511.5", "sweep.key = Cmax\nsweep.values = 1,1e6"):
                path = write_cfg(tmp_path, text.replace("Cmax = 1.0", bad))
                for job in ("analytic", "simulate"):
                    assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 2
                    assert "Cmax: value" in capsys.readouterr().err

    @pytest.mark.parametrize("job, key, text", [
        ("analytic", "quad.n", COARSE.replace("quad.n = 24", "quad.n = 1000000000000")),
    ], ids=["analytic"])
    def test_grid_past_2_to_the_20_nodes_is_config_error(self, tmp_path, capsys,
                                                         job, key, text):
        # 10^12 nodes would be a 7.28 TiB row in quantize; the schema stops at
        # 2^20, before any array is formed
        path = write_cfg(tmp_path, text)
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 2
        assert f"{key}: value 1000000000000 outside allowed range" in capsys.readouterr().err

    def test_grid_of_2_to_the_20_nodes_parses(self):
        assert parse_config_text(f"quad.n = {2**20}\n")["quad.n"] == 2**20
        with pytest.raises(ConfigError, match=f"quad.n: value {2**20 + 1} outside"):
            parse_config_text(f"quad.n = {2**20 + 1}\n")

    @pytest.mark.parametrize("words, text", [
        (["optimize"], COARSE + "csi = lcsit\ngrid.nodes = 6\n"),
        (["figure", "2"], "grid.nodes = 6\n"),
    ], ids=["optimize", "figure"])
    def test_per_node_grid_is_the_quadrature_grid(self, tmp_path, capsys, words, text):
        # there is no separate node-count key: a config or a figure override
        # naming grid.nodes is an unknown key
        path = write_cfg(tmp_path, text)
        assert cli.main([*words, "--config", path, "--out", str(tmp_path)]) == 2
        assert "unknown key 'grid.nodes'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("job", ["analytic", "simulate", "optimize"])
    @pytest.mark.parametrize("text", [
        "P_dB = -3230\npolicy = 0.5,0.0,1.0\nquad.n = 2\nfading_D.dist = rayleigh\n",
        "fading_D.dist = rayleigh\nfading_D.rho_dB = -3230\npolicy = 0.5,0.2,0.9\nquad.n = 4\n",
    ], ids=["subnormal-power", "subnormal-relay-gain"])
    def test_overflow_to_the_outage_limit_is_silent(self, tmp_path, text, job):
        # a subnormal P or d overflows (z - 1)/den in slot_threshold and 1/d in
        # conservative_gain; the +inf threshold (an outage) and a = 0 (a dead
        # link) are the limits the formulas mean, so neither warns
        path = write_cfg(tmp_path, "regime = ltsc\nfading_S.dist = rayleigh\n"
                                   "mc.sessions = 50\ngrid.r_max = 2.0\ngrid.r_step = 0.5\n"
                                   "grid.alpha_step = 0.25\n" + text)
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 0

    def test_stsc_rate_past_overflow_is_an_outage(self, tmp_path):
        # 2^(2 r2) overflows at r2 = 2000; layer 2 is then a plain outage
        path = write_cfg(tmp_path, "regime = stsc\nT = 2\npolicy = 1.0,2000,0.9\n"
                                   "quad.n = 12\n")
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "analytic.csv")
        assert all(np.isfinite(float(c)) for c in rows[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("job", ["analytic", "simulate"])
    def test_backhaul_overflow_inside_the_cap_exits_3(self, tmp_path, capsys, job):
        # at Cmax = 511 and P = 10 dB the compression gain a overflows to inf, so
        # the S-link thresholds are NaN; a NaN is read as no probability (the
        # point-mass cdf read it as 0, and analytic exited 0 with eta = r1 + r2)
        path = write_cfg(tmp_path, "regime = ltsc\nT = 2\nP_dB = 10\nCmax = 511\n"
                                   "fading_S.dist = pointmass\nfading_S.value = 1.0\n"
                                   "policy = 0.9,0.5,0.9\nquad.n = 8\nmc.sessions = 2000\n")
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("job", ["analytic", "optimize"])
    def test_ltsc_interference_variant_is_config_error(self, tmp_path, capsys, job):
        path = write_cfg(tmp_path, COARSE + "bc_layer2_interference = true\n")
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 2
        assert "bc_layer2_interference:" in capsys.readouterr().err

    def test_stsc_optimize_t_sweep_is_config_error(self, tmp_path, capsys):
        # every sweep point is checked, not only the base config's T = 2
        path = write_cfg(tmp_path, "regime = stsc\nquad.n = 8\ngrid.r_max = 2.0\n"
                                   "grid.r_step = 0.5\ngrid.alpha_step = 0.5\n"
                                   "grid.refine = 0\nsweep.key = T\nsweep.values = 2,3\n")
        assert cli.main(["optimize", "--config", path, "--out", str(tmp_path)]) == 2
        assert "T:" in capsys.readouterr().err

    def test_stsc_simulate_runs_at_any_horizon(self, tmp_path):
        path = write_cfg(tmp_path, "regime = stsc\nT = 3\npolicy = 1.0,0.2,0.9\n"
                                   "mc.sessions = 2000\n")
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "simulate.csv")
        assert "p2_dec_3" in rows[0]
        assert all(np.isfinite(float(c)) for c in rows[1])

    @pytest.mark.parametrize("job", ["analytic", "simulate"])
    def test_dead_relay_link_runs(self, tmp_path, job):
        path = write_cfg(tmp_path, "fading_D.dist = pointmass\nfading_D.value = 0.0\n"
                                   "policy = 1.0,0.2,0.9\nmc.sessions = 2000\n")
        assert cli.main([job, "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / f"{job}.csv")
        assert all(np.isfinite(float(c)) for c in rows[1])

    def test_optimize_builds_one_evaluator_per_sweep_point(self, tmp_path, monkeypatch):
        built = []
        init = optimize._Evaluator.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(optimize._Evaluator, "__init__", counting)
        path = write_cfg(tmp_path, COARSE + "sweep.key = P_dB\nsweep.values = 0.0,3.0\n")
        assert cli.main(["optimize", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(built) == 2

    def test_figure_rejects_caption_conflicts(self, tmp_path):
        path = write_cfg(tmp_path, "T = 3\n")
        assert cli.main(["figure", "2", "--config", path,
                         "--out", str(tmp_path)]) == 2

    def test_cell_never_emits_nan(self):
        with pytest.raises(cli.NumericalError):
            cli._cell(float("nan"))


FIG_KNOBS = """
quad.n = 12
grid.r_max = 3.0
grid.r_step = 0.5
grid.alpha_step = 0.25
grid.refine = 1
mc.sessions = 4000
"""


class TestArtifacts:
    @pytest.mark.parametrize("regime", ["ltsc", "stsc"])
    def test_analytic_matches_library_and_reruns_bitwise(self, tmp_path, regime):
        path = write_cfg(tmp_path, COARSE.replace("regime = ltsc", f"regime = {regime}"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["analytic", "--config", path, "--out", str(out1)]) == 0
        rows = read_rows(out1 / "analytic.csv")
        assert rows[0][:3] == ["eta", "expected_reward", "expected_length"]
        ec = load_config(path)
        rep = throughput(ec.system(), ec.rate_policy(), ec.compression(),
                         quad_n=ec["quad.n"])
        assert float(rows[1][0]) == rep.eta

        # the sidecar echo regenerates the CSV byte for byte
        assert cli.main(["analytic", "--config", str(out1 / "analytic.config"),
                         "--out", str(out2)]) == 0
        assert (out1 / "analytic.csv").read_bytes() == \
            (out2 / "analytic.csv").read_bytes()

    @pytest.mark.parametrize("compression", ["constant", "adaptive"])
    def test_dead_relay_link_is_a_relay_without_backhaul(self, tmp_path, compression):
        # a = 0 both when D = 0 and when Cmax = 0: the relay forwards nothing
        base = (f"T = 3\ncompression = {compression}\nfading_D.dist = pointmass\n"
                "policy = 1.0,0.2,0.9\nsweep.key = P_dB\nsweep.values = -3.0,0.0,10.0\n")
        dead = write_cfg(tmp_path, base + "fading_D.value = 0.0\n", name="dead.cfg")
        cut = write_cfg(tmp_path, base + "fading_D.value = 1.0\nCmax = 0.0\n",
                        name="cut.cfg")
        for path, out in ((dead, tmp_path / "dead"), (cut, tmp_path / "cut")):
            assert cli.main(["analytic", "--config", path, "--out", str(out)]) == 0
        assert (tmp_path / "dead" / "analytic.csv").read_bytes() == \
            (tmp_path / "cut" / "analytic.csv").read_bytes()

    def test_csv_is_crlf_terminated(self, tmp_path):
        path = write_cfg(tmp_path, COARSE)
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "analytic.csv").read_bytes()
        assert raw.count(b"\r\n") == 2 and not raw.replace(b"\r\n", b"").count(b"\r")

    def test_simulate_workers_do_not_change_bytes(self, tmp_path):
        path = write_cfg(tmp_path, COARSE)
        outs = []
        for tag, workers in (("w1", "1"), ("w3", "3")):
            out = tmp_path / tag
            assert cli.main(["simulate", "--config", path, "--out", str(out),
                             "--workers", workers]) == 0
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_sweep_and_headers(self, tmp_path):
        path = write_cfg(tmp_path, COARSE +
                         "sweep.key = P_dB\nsweep.values = 0.0,3.0\n")
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "simulate.csv")
        assert rows[0][0] == "P_dB" and len(rows) == 3
        assert "p2_dec_se_2" in rows[0]
        for row in rows[1:]:
            assert all(np.isfinite(float(c)) for c in row)

    def test_optimize_t_sweep_labels_rows_with_integers(self, tmp_path):
        # a swept row is led by the point's bound value, and T binds as an int
        path = write_cfg(tmp_path, "quad.n = 8\ngrid.r_max = 2.0\ngrid.r_step = 0.5\n"
                                   "grid.alpha_step = 0.5\ngrid.refine = 0\n"
                                   "sweep.key = T\nsweep.values = 2,3\n")
        assert cli.main(["optimize", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "optimize.csv")
        assert rows[0][:2] == ["T", "mode"]
        assert [row[:2] for row in rows[1:]] == [["2", "bc"], ["2", "sl"],
                                                 ["3", "bc"], ["3", "sl"]]

    def test_sweep_prints_one_progress_line_per_point(self, tmp_path, capsys):
        path = write_cfg(tmp_path, COARSE + "sweep.key = P_dB\nsweep.values = -3.0,0.0,10.0\n")
        assert cli.main(["analytic", "--config", path, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines[:-1]] == [
            "analytic: P_dB = -3.0", "analytic: P_dB = 0.0", "analytic: P_dB = 10.0"]
        assert lines[-1].startswith("analytic: wrote ")

    def test_optimize_tuple_reverifies_by_analytic_run(self, tmp_path):
        opt_cfg = write_cfg(tmp_path, COARSE.replace("policy = 1.0,0.2,0.9",
                                                     "policy = optimize"))
        assert cli.main(["optimize", "--config", opt_cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "optimize.csv")
        header, by_mode = rows[0], {r[0]: r for r in rows[1:]}
        assert set(by_mode) == {"bc", "sl"}
        bc = dict(zip(header, by_mode["bc"]))
        assert float(by_mode["bc"][header.index("eta")]) >= \
            float(by_mode["sl"][header.index("eta")]) - 1e-12

        ana_cfg = write_cfg(
            tmp_path, COARSE.replace(
                "policy = 1.0,0.2,0.9",
                f"policy = {bc['r1']},{bc['r2']},{bc['alpha']}"),
            name="reverify.cfg")
        out2 = tmp_path / "reverify"
        assert cli.main(["analytic", "--config", ana_cfg, "--out", str(out2)]) == 0
        re_eta = float(read_rows(out2 / "analytic.csv")[1][0])
        assert re_eta == pytest.approx(float(bc["eta"]), abs=1e-9)

    def test_validate_passes_and_reports_recorded_rows(self, tmp_path):
        assert cli.main(["validate", "--out", str(tmp_path),
                         "--sessions", "4000", "--seed", "11"]) == 0
        rows = read_rows(tmp_path / "validate.csv")
        status = [r[-1] for r in rows[1:]]
        assert status.count("fail") == 0 and status.count("pass") > 20
        recorded = [r for r in rows[1:] if r[-1] == "recorded"]
        assert recorded and all(r[-2] == "" for r in recorded)
        variants = {r[3] for r in rows[1:] if r[2] == "stsc"}
        assert variants == {"true", "false"}

    def test_figure_job_writes_caption_bound_csv(self, tmp_path):
        knobs = write_cfg(tmp_path, FIG_KNOBS +
                          "sweep.key = fading_D.rho_dB\nsweep.values = 0.0,10.0\n")
        out = tmp_path / "fig"
        assert cli.main(["figure", "2", "--config", knobs, "--out", str(out)]) == 0
        rows = read_rows(out / "figure2.csv")
        assert rows[0] == ["rho_D_dB", "eta_bc_lcsit", "eta_sl_lcsit",
                           "eta_bc_nolcsit", "eta_sl_nolcsit"]
        assert len(rows) == 3
        for row in rows[1:]:
            eta = [float(c) for c in row[1:]]
            assert eta[0] >= eta[1] - 1e-12   # bc >= sl under lcsit
            assert eta[2] >= eta[3] - 1e-12   # bc >= sl without csi
            assert eta[0] >= eta[2] - 1e-12   # lcsit >= no-lcsit
        echo = (out / "figure2.config").read_text()
        assert "Cmax = 1.0" in echo and "fading_S.rho_dB = 0.0" in echo

        # the sidecar restates the caption, so a rerun from it is byte-identical
        out2 = tmp_path / "fig2"
        assert cli.main(["figure", "2", "--config", str(out / "figure2.config"),
                         "--out", str(out2)]) == 0
        assert (out / "figure2.csv").read_bytes() == \
            (out2 / "figure2.csv").read_bytes()
