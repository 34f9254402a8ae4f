import contextlib
import dataclasses
import enum
import io
import json
import math
import re
import tempfile
import types
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scene_sim import channel, cli, montecarlo
from scene_sim.cli import ConfigError, _convert, load_config, main

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.json")
)
# A crossover sweep section, whose points give the exact c_nc; with a trial
# count it is a small sweep section too.
C_NC_SWEEP = {
    "population": {"n_devices": 3},
    "labels": {"kind": "dirichlet", "num_classes": 10, "alpha": 0.3},
    "sm_pairs": [[1, 1], [2, 2], [4, 4]],
    "snr_db_values": [5.0],
    "channel_model": "diagonal",
}


def run_cli(args):
    return main([str(a) for a in args])


class TestRoundCommand:
    def test_default_run(self, tmp_path, capsys):
        assert run_cli(["round", "--seed", 7, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "q_bar" in out
        assert (tmp_path / "config_resolved.json").exists()

    def test_deterministic_output(self, tmp_path, capsys):
        run_cli(["round", "--seed", 7, "--out", tmp_path / "a"])
        first = capsys.readouterr().out
        run_cli(["round", "--seed", 7, "--out", tmp_path / "b"])
        second = capsys.readouterr().out
        assert first == second

    def test_extreme_values_keep_the_columns(self, tmp_path, capsys):
        # at -700 dB raw and var_bound reach about 1e68 and 1e137: fixed-point
        # cells of 70 and 140 digits used to break the table (diagonal, the
        # model under which the table prints var_bound)
        cfg = tmp_path / "round.json"
        cfg.write_text(json.dumps({"round": {"snr_db": -700, "channel_model": "diagonal"}}))
        assert run_cli(["round", "--config", cfg, "--out", tmp_path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 11 and all(len(row) == 5 + 5 * 13 for row in rows)
        assert all(len(row.split()) == 6 for row in rows)
        assert "e+" in rows[1]

    def test_ratio_table_leaves_scene_closed_forms_blank(self, tmp_path, capsys):
        # bias and var_bound are closed forms of the scene estimator; under
        # ratio they used to print the scene values beside the ratios Y_c/R.
        # var_bound holds only under the diagonal model; superposition
        # exceeds it, so its cell is blank there too.
        section = {"labels": {"kind": "vertex", "num_classes": 2},
                   "population": {"n_devices": 1}}
        for model, estimator, cells in (("diagonal", "scene", 6), ("superposition", "scene", 5),
                                        ("diagonal", "ratio", 4)):
            cfg = tmp_path / f"{model}-{estimator}.json"
            cfg.write_text(json.dumps({"round": {**section, "estimator": estimator,
                                                 "channel_model": model}}))
            assert run_cli(["round", "--config", cfg, "--out", tmp_path / cfg.stem]) == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            assert len(rows) == 2 and all(len(row) == 5 + 5 * 13 for row in rows)
            assert all(len(row.split()) == cells for row in rows)
        assert all(row.endswith(" " * 26) for row in rows)

    def test_overrides_reflected_in_echo(self, tmp_path):
        cfg = tmp_path / "round.json"
        fixed = [[0.2, 0.8], [0.5, 0.5]]
        cfg.write_text(json.dumps({"round": {
            "snr_db": 10, "s": 4, "m": 4, "population": {"n_devices": 2},
            "labels": {"kind": "fixed", "num_classes": 2, "fixed": fixed},
        }}))
        assert run_cli(["round", "--config", cfg, "--seed", 1, "--out", tmp_path]) == 0
        echoed = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echoed["round"]["snr_db"] == 10.0
        assert echoed["round"]["s"] == 4
        assert echoed["round"]["m"] == 4
        assert echoed["round"]["labels"] == {"kind": "fixed", "num_classes": 2, "alpha": 0.3,
                                             "fixed": fixed}
        # the echoed section loads back as the spec that ran
        (tmp_path / "echo.json").write_text(json.dumps({"round": echoed["round"]}))
        assert load_config(str(tmp_path / "echo.json"), "round") == cli._seeded(
            load_config(str(cfg), "round"), 1)[0]

    def test_unknown_key_is_fatal_and_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"round": {"antenas": 4}}))
        code = run_cli(["round", "--config", cfg, "--out", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "antenas" in err

    def test_unknown_section_is_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"rounds": {}}))
        assert run_cli(["round", "--config", cfg, "--out", tmp_path]) == 1
        assert "rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("estimator", "ratoi"), ("rho_rule", "fixd")])
    def test_bad_setting_value_is_fatal(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"round": {key: value}}))
        assert run_cli(["round", "--config", cfg, "--out", tmp_path]) == 1
        assert f"config error: round: {key} must be one of" in capsys.readouterr().err
        assert not (tmp_path / "config_resolved.json").exists()

    def test_estimator_both_rejected(self, tmp_path, capsys):
        # a round runs one estimator; "both" used to run scene silently
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"round": {"estimator": "both"}}))
        with pytest.raises(ConfigError, match="both"):
            load_config(str(cfg), "round")
        out = tmp_path / "out"
        assert run_cli(["round", "--config", cfg, "--seed", 7, "--out", out]) == 1
        assert "both" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "sweep": {
                "population": {"n_devices": 3},
                "labels": {"kind": "dirichlet", "num_classes": 4, "alpha": 0.3},
                "sm_pairs": [[2, 2]],
                "snr_db_values": [5.0],
                "channel_model": "diagonal",
                "trials": 2000,
            }
        }))
        return cfg

    def test_writes_csv(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        assert run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path]) == 0
        content = (tmp_path / "sweep.csv").read_text()
        assert content.startswith("S,M,snr_db,rho,model,estimator,class,")
        # header + K rows each for the raw and projected estimates
        assert len(content.splitlines()) == 1 + 2 * 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path / "a"])
        run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_thread_flag_does_not_change_bytes(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path / "t1",
                 "--threads", 1])
        run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path / "t4",
                 "--threads", 4])
        assert (tmp_path / "t1" / "sweep.csv").read_bytes() == (
            tmp_path / "t4" / "sweep.csv"
        ).read_bytes()

    def default_threads(self, tmp_path, monkeypatch, flag=(), usable=256):
        """Threads a sweep gets on a 256-CPU host whose affinity set has
        ``usable`` CPUs (None: a platform without ``os.sched_getaffinity``)."""
        seen = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 256)
        if usable is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(usable)),
                                raising=False)
        monkeypatch.setattr(cli, "run_experiment", lambda spec, threads: seen.append(threads) or [])
        cfg = self.sweep_config(tmp_path)
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path, *flag]) == 0
        return seen

    @pytest.mark.parametrize("flag, threads", [([], cli._DEFAULT_MAX_THREADS),
                                               (["--threads", 64], 64)])
    def test_default_threads_capped(self, tmp_path, monkeypatch, flag, threads):
        # a 256-core host gets the capped default; an explicit value stays
        assert self.default_threads(tmp_path, monkeypatch, flag) == [threads]

    @pytest.mark.parametrize("usable, threads", [(2, 2), (None, cli._DEFAULT_MAX_THREADS)])
    def test_default_threads_follow_affinity(self, tmp_path, monkeypatch, usable, threads):
        # two usable CPUs of a 256-CPU host get two workers; without an
        # affinity call the host's CPU count decides, still capped
        assert self.default_threads(tmp_path, monkeypatch, usable=usable) == [threads]

    def test_amplitude_underflow_fails(self, tmp_path, capsys):
        # every float32 amplitude is 0 at rho 1e-100: the sweep used to exit 0
        # with every scene mean at 1/K
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"sweep": {"rho_rule": "fixed", "rho_value": 1e-100,
                                             "sm_pairs": [[4, 4]], "trials": 4000}}))
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert "underflow" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_noise_power_overflow_names_noise_var(self, tmp_path, capsys):
        # noise_var = 1e150 / 10 * 10^30 squares past the float range: the
        # sweep used to end with "(34, 'Numerical result out of range')"
        cfg = tmp_path / "loud.json"
        cfg.write_text(json.dumps({"sweep": {"rho_rule": "fixed", "rho_value": 1e150,
                                             "snr_db_values": [-300.0],
                                             "channel_model": "diagonal"}}))
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert "noise_var" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_moment_overflow_names_estimator(self, tmp_path, capsys):
        # the noise term passes its check at -1545 dB, but the squared
        # deviations of the scene estimates overflow: the sweep used to exit 0
        # with inf in 10 cells
        cfg = tmp_path / "faint.json"
        cfg.write_text(json.dumps({"sweep": {"snr_db_values": [-1545.0],
                                             "channel_model": "diagonal", "trials": 20000}}))
        assert run_cli(["sweep", "--config", cfg, "--threads", 1, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "sweep point S=4, M=4, snr_db=-1545.0 failed" in err
        assert "estimator 'scene' overflow" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_estimator_override(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["sweep"]["estimator"] = "both"
        cfg.write_text(json.dumps(raw))
        assert run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path]) == 0
        content = (tmp_path / "sweep.csv").read_text()
        assert ",ratio," in content and ",scene," in content


class TestCrossoverCommand:
    def test_writes_grid(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "crossover": {
                "budgets": [100],
                "pilot_costs": [0, 25, 50, 75],
                "constant_pairs": [[1.0, 2.0]],
                "num_classes": 10,
            }
        }))
        assert run_cli(["crossover", "--config", cfg, "--out", tmp_path]) == 0
        lines = (tmp_path / "crossover.csv").read_text().splitlines()
        assert lines[0] == "B,P,c_coh,c_nc,mse_coh,mse_nc,scene_wins"
        rows = [line.split(",") for line in lines[1:]]
        wins = {int(r[1]): int(r[6]) for r in rows}
        # threshold at P = 50 for c_coh/c_nc = 0.5
        assert wins == {0: 0, 25: 0, 50: 1, 75: 1}

    def test_byte_identical(self, tmp_path):
        run_cli(["crossover", "--out", tmp_path / "a"])
        run_cli(["crossover", "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "crossover.csv").read_bytes() == (
            tmp_path / "b" / "crossover.csv"
        ).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--s", 2), ("--m", 2), ("--snr-db", 10), ("--rho", 0.5),
        ("--model", "diagonal"), ("--estimator", "ratio"), ("--threads", 2),
    ])
    def test_per_field_flags_rejected(self, tmp_path, capsys, flag, value):
        # the crossover grid has no such field; the flag used to be ignored
        with pytest.raises(SystemExit) as exc:
            run_cli(["crossover", "--out", tmp_path, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "crossover.csv").exists()

    @pytest.mark.parametrize("section", [
        {"num_classes": 1},
        {"budgets": [0]},
        {"budgets": [100, -5]},
        {"pilot_costs": [-3]},
        {"constant_pairs": [[0.0, 2.0]]},
        {"constant_pairs": [[1.0, 2.0], [1.0, -2.0]]},
        {"budgets": []},
        {"constant_pairs": []},
        {"budgets": [100], "pilot_costs": [150, 200]},
        {"budgets": [1], "constant_pairs": [[1e308, 1.0]]},
        {"constant_pairs": [[0.0, None]], "sweep": C_NC_SWEEP},
        {"constant_pairs": [[1.0, None], [-1.0, None]], "sweep": C_NC_SWEEP},
        {"budgets": [1], "constant_pairs": [[1e308, None]], "sweep": C_NC_SWEEP},
    ])
    def test_bad_grid_rejected_at_load(self, tmp_path, capsys, section):
        # these used to write config_resolved.json and then fail in the run,
        # or, for a negative pilot cost, an empty list or pilot costs no
        # budget admits, exit 0 with a header-only crossover.csv; a constant
        # whose round MSE overflows wrote inf rows; a sweep supplies only
        # c_nc, so each c_coh is checked at load under a sweep too
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"crossover": section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), "crossover")
        out = tmp_path / "out"
        assert run_cli(["crossover", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("sweep, reason", [
        ({"estimator": "ratio"}, "sweep.estimator 'ratio'"),
        ({"trials": 1}, "sweep.trials 1"),
        ({"snr_db_values": [5.0, 10.0]}, "snr_db"),
        # a K = 10 crossover used to take the c_nc fitted at K = 3
        ({"labels": {"kind": "dirichlet", "num_classes": 3}}, "K = 3"),
    ], ids=["ratio_only", "one_trial", "several_snrs", "other_k"])
    def test_unfittable_sweep_rejected_at_load(self, tmp_path, capsys, sweep, reason):
        # a sweep section used to be ignored without "estimate_c_nc", so
        # each of these exited 0 on the configured constants; with it, the
        # first two printed "using fitted c_nc = nan", wrote nan rows and
        # exited 0, and the last two wrote config_resolved.json first. The
        # exact c_nc reads no trial count or estimator, so a value other than
        # the default is one no run reads
        section = {"constant_pairs": [[1.0, None]],
                   "sweep": {"sm_pairs": [[1, 1], [2, 2], [4, 4]], **sweep}}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"crossover": section}))
        with pytest.raises(ConfigError, match=re.escape(reason)):
            load_config(str(cfg), "crossover")
        out = tmp_path / "out"
        assert run_cli(["crossover", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, rule", [
        ({"constant_pairs": [[1.0, 2.0]], "sweep": C_NC_SWEEP}, "constant_pairs[0]",
         "the sweep gives c_nc"),
        ({"sweep": C_NC_SWEEP}, "constant_pairs[0]", "the sweep gives c_nc"),
        ({"constant_pairs": [[1.0, 2.0], [1.0, None]]}, "constant_pairs[1]",
         "needs a sweep to give it"),
        ({"constant_pairs": [[1.0, None]], "sweep": {**C_NC_SWEEP, "estimator": "both"}},
         "sweep.estimator", "read only under the sweep command"),
    ], ids=["fit_with_c_nc", "fit_with_default_pairs", "null_without_fit", "fit_with_both"])
    def test_c_nc_has_one_source(self, tmp_path, capsys, section, key, rule):
        # under a fit the configured c_nc used to be echoed and never read, and
        # a fit with both estimators ran the ratio estimator only to drop it;
        # the exact c_nc is of the scene estimator and runs no estimator
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"crossover": section}))
        out = tmp_path / "out"
        assert run_cli(["crossover", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and rule in err
        assert not out.exists()

    def test_estimate_c_nc_key_removed(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"crossover": {"estimate_c_nc": True, "sweep": C_NC_SWEEP}}))
        with pytest.raises(ConfigError, match="estimate_c_nc"):
            load_config(str(cfg), "crossover")

    def test_exact_constant_fills_null_c_nc(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "crossover": {
                "budgets": [100, 200],
                "pilot_costs": [0, 50],
                "constant_pairs": [[1.0, None], [3.0, None]],
                "num_classes": 10,
                "sweep": C_NC_SWEEP,
            }
        }))
        assert run_cli(["crossover", "--config", cfg, "--seed", 4, "--out", tmp_path]) == 0
        printed = re.search(r"using exact c_nc = (\S+)\n", capsys.readouterr().out).group(1)
        sweep = dataclasses.replace(load_config(str(cfg), "crossover").sweep, seed=4)
        exact = montecarlo.mse_constant(sweep)
        rows = [r.split(",") for r in (tmp_path / "crossover.csv").read_text().splitlines()[1:]]
        assert len(rows) == 8
        assert all(float(r[3]) == exact for r in rows)
        assert printed == f"{exact:.7g}"
        assert {r[2] for r in rows} == {"1", "3"}
        echo = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echo["crossover"]["constant_pairs"] == [[1.0, None], [3.0, None]]


class TestFdCommand:
    def fd_config(self, tmp_path):
        cfg = tmp_path / "fd.json"
        cfg.write_text(json.dumps({
            "fd": {
                "clients": 3,
                "unlabeled_budget": 32,
                "pretrain_epochs": 5,
                "distill_epochs": 5,
                "round": {"num_classes": 10, "reps": 2, "antennas": 1},
                "snr_db": 5.0,
            }
        }))
        return cfg

    def test_writes_metrics(self, tmp_path):
        cfg = self.fd_config(tmp_path)
        assert run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path]) == 0
        lines = (tmp_path / "fd_metrics.csv").read_text().splitlines()
        assert lines[0] == "round,U,S,M,snr_db,aggregation,server_acc,agg_l2_err,seed"
        assert len(lines) == 2

    def test_byte_identical(self, tmp_path):
        cfg = self.fd_config(tmp_path)
        run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path / "a"])
        run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "fd_metrics.csv").read_bytes() == (
            tmp_path / "b" / "fd_metrics.csv"
        ).read_bytes()

    def fd_config_with(self, tmp_path, **fields):
        cfg = self.fd_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["fd"].update(fields)
        cfg.write_text(json.dumps(raw))
        return cfg

    def test_estimator_both_rejected(self, tmp_path, capsys):
        # FD aggregates with one estimator; "both" is no aggregation
        cfg = self.fd_config_with(tmp_path, aggregation="both")
        with pytest.raises(ConfigError, match="both"):
            load_config(str(cfg), "fd")
        out = tmp_path / "out"
        assert run_cli(["fd", "--config", cfg, "--seed", 2, "--out", out]) == 1
        assert "both" in capsys.readouterr().err
        assert not out.exists()

    def test_rho_override(self, tmp_path):
        cfg = self.fd_config_with(tmp_path, rho_rule="fixed",
                                  round={"num_classes": 10, "reps": 2, "antennas": 1,
                                         "rho": 0.25})
        assert run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path]) == 0
        echoed = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echoed["fd"]["rho_rule"] == "fixed"
        assert echoed["fd"]["round"]["rho"] == 0.25

    @pytest.mark.parametrize("setting, key, value", [
        pytest.param({}, "num_classes", 3, id="num_classes-3"),
        pytest.param({}, "use_reference_re", True, id="use_reference_re-True"),
        pytest.param({}, "noise_var", 7.0, id="noise_var-7.0"),
        pytest.param({"snr_db": None}, "noise_var", 7.0, id="snr_db-null-noise_var-7.0"),
        pytest.param({"aggregation": "ratio"}, "use_reference_re", True,
                     id="ratio-use_reference_re-True"),
    ])
    def test_round_conflict_rejected(self, tmp_path, capsys, setting, key, value):
        # fd sets these from data, aggregation and snr_db, whatever the
        # section-level ``setting``; a conflicting value used to be overwritten
        # silently, and a null snr_db used to read round.noise_var
        cfg = self.fd_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["fd"].update(setting)
        raw["fd"]["round"][key] = value
        cfg.write_text(json.dumps(raw))
        code = run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and f"round.{key}" in err
        assert not (tmp_path / "out").exists()

    def test_snr_override(self, tmp_path):
        cfg = self.fd_config_with(tmp_path, snr_db=10)
        assert run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path]) == 0
        echoed = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echoed["fd"]["snr_db"] == 10.0
        assert ",10," in (tmp_path / "fd_metrics.csv").read_text().splitlines()[1]


class TestErrorPaths:
    def test_bad_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_invalid_field_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sweep": {"trials": 0}}))
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 1

    @pytest.mark.parametrize("key", ["time_corr", "space_corr"])
    def test_sweep_correlation_checked_at_load(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sweep": {key: 1.5}}))
        with pytest.raises(ConfigError, match=key):
            load_config(str(cfg), "sweep")
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["round", "sweep"])
    @pytest.mark.parametrize("flag", ["--s", "--m"])
    def test_zero_count_flag_rejected_at_load(self, tmp_path, capsys, command, flag):
        # the zero S or M that --s 0 / --m 0 used to set, now set in the
        # section; it used to write config_resolved.json and fail only when
        # the round ran
        s, m = (0, 4) if flag == "--s" else (4, 0)
        section = {"s": s, "m": m} if command == "round" else {"sm_pairs": [[s, m]]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), command)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_sweep_pairs_checked_at_load(self, tmp_path, capsys):
        # the bad second pair used to fail only after the first point ran
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sweep": {"sm_pairs": [[2, 2], [0, 4]], "trials": 100}}))
        with pytest.raises(ConfigError, match="sm_pairs"):
            load_config(str(cfg), "sweep")
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["round", "sweep"])
    @pytest.mark.parametrize(
        "labels",
        [
            # 3-entry rows under num_classes 10: round printed a 3-class table
            {"kind": "fixed", "num_classes": 10, "fixed": [[0.2, 0.3, 0.5]] * 2},
            {"kind": "fixed", "num_classes": 2, "fixed": [[0.5, 0.5]] * 3},
            {"kind": "fixed", "num_classes": 2, "fixed": [[0.5, 0.6]] * 2},
            {"kind": "dirichlet", "alpha": 0.0},
            {"kind": "dirichlet", "alpha": -1.0},
            # drew Dirichlet labels and ignored the fixed ones
            {"kind": "dirichlet", "num_classes": 2, "fixed": [[0.5, 0.5], [1.0, 0.0]]},
        ],
    )
    def test_labels_checked_at_load(self, tmp_path, capsys, command, labels):
        cfg = tmp_path / "bad.json"
        section = {"population": {"n_devices": 2}, "labels": labels}
        cfg.write_text(json.dumps({command: section}))
        with pytest.raises(ConfigError, match="labels"):
            load_config(str(cfg), command)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section",
        [
            ("round", {"population": {"power_cap_range": [-0.2, 1.5]}}),
            ("sweep", {"population": {"gamma_range": [1.2, 0.8]}}),
            ("fd", {"power_cap_range": [0.0, 1.5]}),
            # the type checks of the config reader
            pytest.param("sweep", {"trials": None}, id="null-not-optional"),
            pytest.param("sweep", {"population": 3}, id="object-expected"),
            pytest.param("sweep", [4], id="section-not-object"),  # was an AttributeError
            pytest.param("sweep", {"sm_pairs": 4}, id="array-expected"),
            pytest.param("sweep", {"sm_pairs": [[4, 4, 4]]}, id="pair-length"),
            pytest.param("sweep", {"snr_db_values": ["5"]}, id="number-expected"),
            pytest.param("sweep", {"population": {"pathloss": {"normalize_mean": 1}}},
                         id="boolean-expected"),
            # the checks of the section types
            pytest.param("sweep", {"population": {"pathloss": {"exponent": 0}}},
                         id="pathloss-exponent"),
            pytest.param("sweep", {"population": {"pathloss": {"shadowing_std_db": -1}}},
                         id="pathloss-shadowing"),
            pytest.param("sweep", {"population": {"n_devices": 0}}, id="no-device"),
            pytest.param("sweep", {"labels": {"num_classes": 1}}, id="one-class"),
            pytest.param("sweep", {"labels": {"kind": "fixed"}}, id="fixed-without-rows"),
            pytest.param("sweep", {"sm_pairs": []}, id="no-pair"),
            pytest.param("sweep", {"snr_db_values": []}, id="no-snr"),
            # rho^2 = 0 in float64; the variance bound divides by it
            pytest.param("fd", {"round": {"num_classes": 10, "rho": 1e-300}}, id="fd-round-rho"),
            # 10^(snr_db / 10) is 0 or past the float range: these used to
            # write config_resolved.json and then fail inside the run
            pytest.param("sweep", {"snr_db_values": [5.0, -4000.0]}, id="sweep-snr-low"),
            pytest.param("sweep", {"snr_db_values": [4000.0]}, id="sweep-snr-high"),
            pytest.param("round", {"snr_db": -4000.0}, id="round-snr-low"),
            pytest.param("round", {"snr_db": 4000.0}, id="round-snr-high"),
            pytest.param("fd", {"snr_db": -4000.0}, id="fd-snr-low"),
            pytest.param("fd", {"snr_db": 4000.0}, id="fd-snr-high"),
        ],
    )
    def test_ranges_checked_at_load(self, tmp_path, capsys, command, section):
        # a negative cap used to pass or fail with the drawn seed
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), command)
        for seed in range(5):
            out = tmp_path / f"out{seed}"
            assert run_cli([command, "--config", cfg, "--seed", seed, "--out", out]) == 1
            assert capsys.readouterr().err.startswith("config error")
            assert not out.exists()

    @pytest.mark.parametrize(
        "section",
        [
            {"batch_size": -4},
            {"batch_size": 0},
            {"learning_rate": 0},
            {"learning_rate": -1},
            {"pretrain_epochs": -1},
            {"distill_epochs": -1},
            {"data": {"dim": 0}},
            {"data": {"noise_std": -0.3}},
            {"private_size": 0},
            {"clients": 50, "private_size": 10},
            {"private_size": 6000, "open_size": 4000},
        ],
    )
    def test_fd_training_settings_checked_at_load(self, tmp_path, capsys, section):
        # these used to exit 0 at chance-level accuracy, or for batch_size 0
        # and splits with an empty client shard or test set write
        # config_resolved.json and then fail inside the run
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"fd": section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), "fd")
        out = tmp_path / "out"
        assert run_cli(["fd", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps([{"sweep": {}}]))
        with pytest.raises(ConfigError, match="top level"):
            load_config(str(cfg), "sweep")
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["round", "sweep", "crossover", "fd"])
    @pytest.mark.parametrize("text, reason", [
        ('{"%s": {"seed": 1,}}', "Expecting property name"),
        ('{"%s": {"seed": 1' + "0" * 4300 + "}}", "Exceeds the limit"),
    ], ids=["trailing_comma", "4301_digits"])
    def test_unparsable_config_names_the_file(self, tmp_path, capsys, command, text, reason):
        # both came through as an error of the run, not of the config
        cfg = tmp_path / "bad.json"
        cfg.write_text(text % command)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command}: cannot parse {cfg}: {reason}")
        assert not out.exists()

    def test_fd_null_snr_loads_as_none(self, tmp_path):
        cfg = tmp_path / "fd.json"
        cfg.write_text(json.dumps({"fd": {"snr_db": None}}))
        assert load_config(str(cfg), "fd").snr_db is None

    def test_fd_zero_epochs_still_load(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"fd": {"pretrain_epochs": 0, "distill_epochs": 0,
                                          "data": {"noise_std": 0.0}}}))
        spec = load_config(str(cfg), "fd")
        assert spec.pretrain_epochs == spec.distill_epochs == 0

    @pytest.mark.parametrize("command", ["round", "sweep", "crossover", "fd"])
    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        # sweep --threads 0 used to exit 0 and run serially; round and fd
        # checked the flag and then ignored it, and crossover runs no trials:
        # only sweep takes it
        out = tmp_path / "out"
        argv = [command, "--threads", threads, "--out", out]
        if command != "sweep":
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == 2
        else:
            assert run_cli(argv) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, result", [
        ("round", {"rho_rule": "fixed", "rho_value": 1e-100}, None),
        ("sweep", {"rho_rule": "fixed", "rho_value": 1e-100, "trials": 100}, "sweep.csv"),
        ("fd", {"rho_rule": "fixed", "round": {"num_classes": 10, "rho": 1e-100}},
         "fd_metrics.csv"),
    ])
    def test_failed_run_echoes_no_config(self, tmp_path, capsys, command, section, result):
        # rho 1e-100 loads, and every float32 amplitude underflows in the run:
        # config_resolved.json used to be written before the run failed
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({command: section}))
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert "device amplitudes underflow float32" in capsys.readouterr().err
        assert not (out / "config_resolved.json").exists()
        assert result is None or not (out / result).exists()

    @pytest.mark.parametrize("command", ["round", "sweep", "fd"])
    @pytest.mark.parametrize("flag", ["--snr-db", "--rho"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, command, flag, value):
        # sweep --snr-db nan used to run noise-free and write empty snr_db
        # cells; the flag is gone, so its attached form is a usage error
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli([command, f"{flag}={value}", "--out", out])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section",
        [
            ("sweep", {"snr_db_values": [float("nan")]}),
            ("round", {"snr_db": float("inf")}),
            ("round", {"rho_rule": "fixed", "rho_value": float("nan")}),
            ("sweep", {"population": {"pathloss": {"exponent": float("inf")}}}),
            ("fd", {"snr_db": float("nan")}),
            ("fd", {"round": {"num_classes": 10, "rho": float("-inf")}}),
            ("crossover", {"constant_pairs": [[1.0, float("nan")]]}),
            # an integer literal past the float range used to raise a bare
            # OverflowError, reported as "error in '<command>'"
            ("round", {"snr_db": 10**400}),
            ("sweep", {"snr_db_values": [5.0, -(10**400)]}),
            ("crossover", {"constant_pairs": [[10**400, 2.0]]}),
            ("fd", {"learning_rate": 10**400}),
        ],
    )
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, command, section):
        # json reads NaN and Infinity literals; fd with snr_db NaN used to
        # run noise-free and write nan into fd_metrics.csv
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: section}))
        with pytest.raises(ConfigError, match="finite"):
            load_config(str(cfg), command)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not (out / "config_resolved.json").exists()

    @pytest.mark.parametrize("rule", ["min_rho", "fixed"])
    @pytest.mark.parametrize("command", ["round", "sweep"])
    def test_rho_value_checked_at_load(self, tmp_path, capsys, command, rule):
        # rho_value 1e-300 used to write config_resolved.json and then fail
        # with a bare "float division by zero": the variance bound divides by
        # rho^2, which is 0 below about 1.5e-154 and inf above 1.3e154
        for value in (0.0, 1e-300, 1e300):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({command: {"rho_rule": rule, "rho_value": value}}))
            with pytest.raises(ConfigError, match="rho_value"):
                load_config(str(cfg), command)
            out = tmp_path / "out"
            assert run_cli([command, "--config", cfg, "--out", out]) == 1
            assert capsys.readouterr().err.startswith("config error")
            assert not out.exists()

    @pytest.mark.parametrize("command, section, key, rule", [
        ("round", {"rho_value": 7.0}, "rho_value", "rho_rule 'fixed'"),
        ("sweep", {"rho_rule": "min_rho", "rho_value": 7.0}, "rho_value", "rho_rule 'fixed'"),
        ("crossover", {"constant_pairs": [[1.0, None]],
                       "sweep": {**C_NC_SWEEP, "rho_value": 7.0}}, "rho_value", "rho_rule 'fixed'"),
        ("fd", {"round": {"num_classes": 10, "rho": 123.0}}, "round.rho", "rho_rule 'fixed'"),
        ("sweep", {"labels": {"kind": "vertex", "alpha": 99.0}}, "alpha", "kind 'dirichlet'"),
        ("round", {"population": {"n_devices": 1},
                   "labels": {"kind": "fixed", "num_classes": 2, "fixed": [[0.5, 0.5]],
                              "alpha": 99.0}}, "alpha", "kind 'dirichlet'"),
    ], ids=["round-rho_value", "sweep-rho_value", "crossover-rho_value", "fd-round.rho",
            "alpha-vertex", "alpha-fixed"])
    def test_value_unread_by_its_rule_rejected(self, tmp_path, capsys, command, section, key,
                                               rule):
        # min_rho negotiates rho and only dirichlet labels read alpha: these
        # runs used to exit 0 and echo the value that no code had read
        cfg = tmp_path / "unread.json"
        cfg.write_text(json.dumps({command: section}))
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{key} " in err and f"read only under {rule}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("sweep", {"rho_rule": "fixed", "rho_value": 7.0}),
        ("sweep", {"rho_value": 1.0}),  # the default, written out
        ("fd", {"rho_rule": "fixed", "round": {"num_classes": 10, "rho": 123.0}}),
        ("fd", {"round": {"num_classes": 10, "rho": 1.0}}),
        ("sweep", {"labels": {"kind": "dirichlet", "alpha": 1e3}}),
        ("sweep", {"labels": {"kind": "vertex", "alpha": 0.3}}),
        ("crossover", {"constant_pairs": [[1.0, None]],
                       "sweep": {**C_NC_SWEEP, "trials": 10_000, "estimator": "scene"}}),
    ], ids=["sweep-rho_value-fixed", "sweep-rho_value-default", "fd-round.rho-fixed",
            "fd-round.rho-default", "alpha-dirichlet", "alpha-default-vertex",
            "crossover-sweep-defaults"])
    def test_value_loads_under_its_rule_or_at_default(self, tmp_path, command, section):
        cfg = tmp_path / "read.json"
        cfg.write_text(json.dumps({command: section}))
        load_config(str(cfg), command)

    def test_wrong_type(self, tmp_path, capsys):
        # the class that holds each value rejects it, at load
        for command, section, key in [
            ("sweep", {"trials": "many"}, "trials"),
            ("sweep", {"trials": 2.0}, "trials"),
            ("sweep", {"trials": True}, "trials"),
            ("sweep", {"estimator": True}, "estimator"),
            ("crossover", {"pilot_costs": [0, 2.5]}, "pilot_costs[1]"),
            ("crossover", {"budgets": [100.0]}, "budgets[0]"),
        ]:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({command: section}))
            assert run_cli([command, "--config", cfg, "--out", tmp_path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and key in err, err
            assert not (tmp_path / "config_resolved.json").exists()

    @pytest.mark.parametrize("tp", [list[int], str, dict[str, int]])
    def test_unsupported_field_type_is_loud(self, tp):
        with pytest.raises(ConfigError, match="unsupported config field type"):
            _convert(tp, [1], "x")


class TestRunSeed:
    """The run seed is ``--seed``, else the section's own seed (the sweep's
    for crossover), else 0, and the echoed config shows the one that ran."""

    def crossover_config(self, tmp_path, **sweep):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "crossover": {"budgets": [100], "pilot_costs": [0, 50],
                          "constant_pairs": [[1.0, None]], "sweep": {**C_NC_SWEEP, **sweep}}
        }))
        return cfg

    def run(self, tmp_path, name, *args):
        out = tmp_path / name
        assert run_cli([*args, "--out", out]) == 0
        return out

    def test_crossover_fit_uses_sweep_seed(self, tmp_path):
        # the fit used to ignore sweep.seed and run at seed 0, while
        # config_resolved.json echoed the configured 5
        cfg = self.crossover_config(tmp_path, seed=5)
        own = self.run(tmp_path, "own", "crossover", "--config", cfg)
        flag = self.run(tmp_path, "flag", "crossover", "--config", cfg, "--seed", 5)
        zero = self.run(tmp_path, "zero", "crossover", "--config", cfg, "--seed", 0)
        assert (own / "crossover.csv").read_bytes() == (flag / "crossover.csv").read_bytes()
        assert (own / "crossover.csv").read_bytes() != (zero / "crossover.csv").read_bytes()
        echo = json.loads((own / "config_resolved.json").read_text())
        assert echo["seed"] == echo["crossover"]["sweep"]["seed"] == 5
        echo = json.loads((zero / "config_resolved.json").read_text())
        assert echo["seed"] == echo["crossover"]["sweep"]["seed"] == 0

    @pytest.mark.parametrize("command", ["sweep", "round"])
    def test_seed_flag_echoed_in_section(self, tmp_path, command):
        # sweep --seed 9 used to echo "sweep": {"seed": 0} next to "seed": 9
        args = [command, "--seed", 9]
        if command == "sweep":
            cfg = tmp_path / "s.json"
            cfg.write_text(json.dumps({"sweep": {**C_NC_SWEEP, "trials": 200, "seed": 3}}))
            args += ["--config", cfg]
        out = self.run(tmp_path, "out", *args)
        echo = json.loads((out / "config_resolved.json").read_text())
        assert echo["seed"] == echo[command]["seed"] == 9

    def test_sweep_section_seed_used_without_flag(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"sweep": {**C_NC_SWEEP, "trials": 200, "seed": 3}}))
        own = self.run(tmp_path, "own", "sweep", "--config", cfg)
        flag = self.run(tmp_path, "flag", "sweep", "--config", cfg, "--seed", 3)
        assert (own / "sweep.csv").read_bytes() == (flag / "sweep.csv").read_bytes()
        assert json.loads((own / "config_resolved.json").read_text())["seed"] == 3

    def test_crossover_without_sweep_echoes_flag(self, tmp_path):
        out = self.run(tmp_path, "out", "crossover", "--seed", 7)
        assert json.loads((out / "config_resolved.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("command", ["round", "sweep", "crossover", "fd"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, command):
        # round, sweep and fd used to write config_resolved.json and then fail
        # in RandomSource; crossover exited 0 and echoed seed -1
        out = tmp_path / "out"
        assert run_cli([command, "--seed", -1, "--out", out]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("round", {"seed": -1}),
        ("sweep", {"seed": -2}),
        ("crossover", {"sweep": {**C_NC_SWEEP, "seed": -1}}),
    ])
    def test_negative_section_seed_rejected_at_load(self, tmp_path, capsys, command, section):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: section}))
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(cfg), command)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--s", "--m", "--snr-db", "--rho", "--model", "--estimator",
                                  "--se"])
@pytest.mark.parametrize("command", ["round", "sweep", "crossover", "fd"])
def test_deleted_flag_is_usage_error(tmp_path, capsys, command, flag):
    # a setting is spelled only in its config section, and flags are not
    # abbreviated, so a deleted "--s 2" cannot be read as "--seed 2"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, 2, "--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


_EACH_SHIPPED_SECTION = pytest.mark.parametrize(
    "path, section",
    [(p, s) for p in SHIPPED_CONFIGS for s in json.loads(p.read_text())],
    # by file name, or by path where the benchmark's copy shares the name
    ids=lambda v: v if not isinstance(v, Path) else (
        str(v.relative_to(ROOT)) if v.parent == ROOT / "configs"
        and (ROOT / "perfbench" / "configs" / v.name).exists() else v.name),
)


@_EACH_SHIPPED_SECTION
def test_shipped_config_loads(path, section):
    # a key deleted from a section type must not leave a shipped config broken
    load_config(str(path), section)


@_EACH_SHIPPED_SECTION
def test_shipped_config_echo_loads_back(path, section, tmp_path):
    # the section of config_resolved.json, written as main writes it, is a
    # config that loads to the spec that ran
    spec, seed = cli._seeded(load_config(str(path), section), None)
    cli._echo_config(spec, section, seed, tmp_path)
    echoed = json.loads((tmp_path / "config_resolved.json").read_text())
    (tmp_path / "echo.json").write_text(json.dumps({section: echoed[section]}))
    assert load_config(str(tmp_path / "echo.json"), section) == spec


def _ran(run, result=None):
    """True when ``run`` exited 0; False when it exited 1 at a run-time limit
    of ``_LIMITS``, leaving neither ``result`` nor config_resolved.json."""
    if run.code == 0:
        return True
    assert run.code == 1 and any(limit in run.stderr for limit in _LIMITS), run.stderr
    assert not (run.out / "config_resolved.json").exists()
    assert result is None or not (run.out / result).exists()
    return False


@contextlib.contextmanager
def _load_or_run(command, section, *args):
    """Load ``section`` as the ``command`` config, then run it with ``args``.
    A section that load rejects must exit 1 and leave no output directory,
    and yields None; else yields the spec, the exit code, the output
    directory and the captured stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({command: section}))
        out = Path(tmp) / "out"
        argv = [command, "--config", cfg, *args, "--out", out]
        try:
            spec = load_config(str(cfg), command)
        except ConfigError:
            assert run_cli(argv) == 1
            assert not out.exists()
            yield None
            return
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        yield types.SimpleNamespace(spec=spec, code=code, out=out, stdout=stdout.getvalue(),
                                    stderr=stderr.getvalue())


def _section(tp, values, required=frozenset(), path=""):
    """A strategy for a config section of the dataclass ``tp``, built from
    its type hints: each field is a key, present when its dotted path is in
    ``required`` and optional otherwise. A key draws from ``values[path]``;
    unlisted, a nested dataclass is a section again, a setting Enum draws a
    value or a misspelling, and a bool either value."""
    hints = typing.get_type_hints(tp)
    keys = {f.name: _value(hints[f.name], values, required, path + f.name)
            for f in dataclasses.fields(tp)}
    present = {name: keys.pop(name) for name in list(keys) if path + name in required}
    return st.fixed_dictionaries(present, optional=keys)


def _value(tp, values, required, path):
    if path in values:
        return values[path]
    if dataclasses.is_dataclass(tp):
        return _section(tp, values, required, path + ".")
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return st.sampled_from([member.value for member in tp] + ["bogus"])
    assert tp is bool, f"list the values of {path}"
    return st.booleans()


def _pair(values):
    return st.tuples(st.sampled_from(values), st.sampled_from(values))


_CONSTANT = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1.0, 1e300, 1e308]),
    st.floats(min_value=-10.0, max_value=1e308, allow_nan=False),
)
_CROSSOVER_SECTION = st.fixed_dictionaries({}, optional={
    "budgets": st.lists(st.integers(0, 5), min_size=1, max_size=3),
    "pilot_costs": st.lists(st.integers(-1, 6), min_size=1, max_size=4),
    "constant_pairs": st.lists(st.tuples(_CONSTANT, st.none() | _CONSTANT), min_size=1,
                               max_size=3),
    "num_classes": st.integers(0, 4),
    "sweep": st.just(C_NC_SWEEP),
})


@given(section=_CROSSOVER_SECTION)
@example(section={"budgets": [1], "pilot_costs": [1]})  # used to write a header-only CSV
@example(section={"budgets": [1], "constant_pairs": [[1e308, 1.0]]})  # used to write inf
@example(section={"pilot_costs": [0, 1], "constant_pairs": [[1.0, None]], "sweep": C_NC_SWEEP})
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_crossover_section_rejected_at_load_or_runs_finite(section):
    with _load_or_run("crossover", section) as run:
        if run is None:
            return
        assert run.code == 0
        rows = [row.split(",") for row in (run.out / "crossover.csv").read_text().splitlines()[1:]]
        assert {int(row[0]) for row in rows} == set(run.spec.budgets)  # every budget has rows
        assert all(math.isfinite(float(x)) for row in rows for x in row)


# Values of the sections the property tests draw: tiny sizes, so each example
# runs in milliseconds, and in each list values that load rejects beside
# extreme values. The rho and SNR lists reach past the run-time limits that
# load cannot check, as under min_rho they depend on the drawn gains: rho past
# the float32 amplitude range of the superposition kernel (about 1e+-76), a
# noise power rho / K * 10^(-snr_db / 10) past the float64 range (a min_rho
# near 1e10 at -3000 dB) or whose square over rho^2 overflows in the variance
# bound (at rho 1, below about -1540 dB), both named noise_var, sweep moments past
# the float64 range (at -1545 dB). A run may fail only at one of these limits,
# named in its error (_LIMITS), and must then leave no result file and no
# echoed config; every other run exits 0 with finite outputs. rho_value,
# round.rho and labels.alpha are drawn apart from the rule that reads them,
# so load rejects most of their values under min_rho or a non-dirichlet kind;
# the @examples keep the fixed-rho extremes running.
_SNR_DB = st.sampled_from([-4000.0, -3000.0, -1545.0, -300.0, -20.0, 5.0, 300.0, 4000.0])
_RHO = st.sampled_from([0.0, 1e-300, 1e-100, 1e-70, 1e-6, 1.0, 1e6, 1e70, 1e100, 1e300])
_LIMITS = ("underflow float32", "received energies overflow", "noise_var",
           "overflow the float64 range")
_CORRELATION = st.sampled_from([0.0, 0.5, 0.99, 1.0])
_PATHLOSS = {
    "pathloss.exponent": st.sampled_from([0.0, 0.5, 3.5, 8.0]),
    "pathloss.distance_range": _pair([0.0, 1e-3, 5.0, 50.0, 1e4]),
    "pathloss.shadowing_std_db": st.sampled_from([-1.0, 0.0, 8.0, 40.0]),
    "power_cap_range": _pair([0.0, 1e-6, 0.5, 1.5, 1e6]),
}
_SETUP = {  # the fields round and sweep share
    **{"population." + key: values for key, values in _PATHLOSS.items()},
    "population.n_devices": st.integers(0, 3),
    "population.weight_rule": st.sampled_from(["uniform", "random", "randon"]),
    "population.gamma_range": st.none() | _pair([0.0, 0.1, 1.0, 10.0]),
    "labels.num_classes": st.integers(1, 4),
    "labels.alpha": st.sampled_from([0.0, 1e-3, 0.3, 1e3]),
    "labels.fixed": st.lists(st.sampled_from([[1.0, 0.0], [0.5, 0.5], [0.5, 0.25, 0.25]]),
                             min_size=1, max_size=3),
    "rho_rule": st.sampled_from(["min_rho", "fixed", "minimum"]),
    "rho_value": _RHO,
    "seed": st.integers(-1, 3),
}
_SWEEP_SECTION = _section(cli._SECTION_TYPES["sweep"], {
    **_SETUP,
    "sm_pairs": st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=2),
    "snr_db_values": st.lists(_SNR_DB, min_size=1, max_size=2),
    "trials": st.integers(0, 30),
    "time_corr": _CORRELATION,
    "space_corr": _CORRELATION,
}, required={"trials"})
_ROUND_SECTION = _section(cli._SECTION_TYPES["round"], {
    **_SETUP, "s": st.integers(0, 3), "m": st.integers(0, 3), "snr_db": _SNR_DB,
})
_FD_SECTION = _section(cli._SECTION_TYPES["fd"], {
    **_PATHLOSS,
    "clients": st.sampled_from([1, 3]),
    "private_size": st.sampled_from([40, 120]),
    "open_size": st.sampled_from([40, 8]),
    "unlabeled_budget": st.sampled_from([8, 1, 40, 0]),
    "pretrain_epochs": st.sampled_from([1, 0, 2, -1]),
    "distill_epochs": st.sampled_from([1, 0, 2, -1]),
    "batch_size": st.sampled_from([4, 1, 300, 0]),
    "learning_rate": st.sampled_from([0.5, 1e-3, 1e3, 0.0]),
    "round.num_classes": st.sampled_from([2, 3, 1]),
    "round.reps": st.sampled_from([1, 3, 0]),
    "round.antennas": st.sampled_from([1, 2, 0]),
    "round.rho": _RHO,
    "round.noise_var": st.sampled_from([0.0, 0.1, 1e6, 1e300, -1.0]),
    "round.time_corr": _CORRELATION,
    "round.space_corr": _CORRELATION,
    "snr_db": st.none() | _SNR_DB,
    "rho_rule": _SETUP["rho_rule"],
    "data.num_classes": st.sampled_from([2, 3, 1]),
    "data.dim": st.sampled_from([4, 1, 0]),
    "data.size": st.sampled_from([200, 50]),
    "data.noise_std": st.sampled_from([0.3, 0.0, 1e3, -1.0]),
}, required={"private_size", "open_size", "unlabeled_budget", "pretrain_epochs", "distill_epochs",
             "round.num_classes", "data", "data.size", "data.dim"})


@given(section=_SWEEP_SECTION)
@example(section={"trials": 4, "snr_db_values": [-4000.0]})  # failed after loading
@example(section={"trials": 4, "rho_rule": "fixed", "rho_value": 1e-100})  # amplitudes
@example(section={"trials": 4, "snr_db_values": [5.0, -3000.0]})  # noise term
@example(section={"trials": 4, "rho_rule": "fixed", "rho_value": 1e100})  # energies
@example(section={"trials": 4, "rho_value": 7.0})  # rejected: min_rho negotiates rho
@example(section={"trials": 4, "rho_rule": "fixed", "rho_value": 1e70,
                  "snr_db_values": [-3000.0]})  # rejected: noise power past the float range
@example(section={"trials": 4, "labels": {"kind": "vertex", "alpha": 1e3}})  # rejected
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_sweep_section_rejected_at_load_or_runs_finite(section, monkeypatch):
    # tiny jobs, chunks and blocks, so up to 30 trials cross job, block and
    # chunk borders on two threads
    monkeypatch.setattr(montecarlo, "_JOB_TRIALS", 7)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 8)
    monkeypatch.setattr(channel, "_SUPER_CHUNK_ELEMS", 100)
    monkeypatch.setattr(channel, "_WORK_ELEMS", 100)
    with _load_or_run("sweep", section, "--threads", 2) as run:
        if run is None or not _ran(run, "sweep.csv"):
            return
        spec = run.spec
        rows = [row.split(",") for row in (run.out / "sweep.csv").read_text().splitlines()[1:]]
        variants = 4 if spec.estimator.value == "both" else 2
        points = len(spec.sm_pairs) * len(spec.snr_db_values)
        assert len(rows) == points * variants * spec.labels.num_classes
        numbers = [x for row in rows for i, x in enumerate(row) if i not in (4, 5) and x]
        assert all(math.isfinite(float(x)) for x in numbers)  # model, estimator aside


@given(section=_ROUND_SECTION)
@example(section={"rho_rule": "fixed", "rho_value": 1e-100})  # amplitudes
@example(section={"rho_rule": "fixed", "rho_value": 1e70})  # runs
@example(section={"rho_value": 1e-70})  # rejected: min_rho negotiates rho
@example(section={"rho_rule": "fixed", "rho_value": 1e70,
                  "snr_db": -3000.0})  # rejected: noise power past the float range
@example(section={"snr_db": -3000.0, "population": {"pathloss": {
    "distance_range": (1e-3, 1e-3), "normalize_mean": False}}})  # noise power, at run time
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_section_rejected_at_load_or_runs_finite(section):
    with _load_or_run("round", section) as run:
        if run is None or not _ran(run):
            return
        rows = [row.split() for row in run.stdout.splitlines()[2:]]
        assert len(rows) == run.spec.labels.num_classes
        assert all(math.isfinite(float(x)) for row in rows for x in row)


_TINY_FD = {"private_size": 40, "open_size": 40, "unlabeled_budget": 8, "pretrain_epochs": 1,
            "distill_epochs": 1, "data": {"size": 200, "dim": 4, "num_classes": 2}}


@given(section=_FD_SECTION)
@example(section={**_TINY_FD, "rho_rule": "fixed",
                  "round": {"num_classes": 2, "rho": 1e-100}})  # amplitudes
@example(section={**_TINY_FD, "rho_rule": "fixed",
                  "round": {"num_classes": 2, "rho": 1e100}})  # energies
@example(section={**_TINY_FD, "round": {"num_classes": 2, "rho": 1e-6}})  # rejected
@example(section={**_TINY_FD, "rho_rule": "fixed", "snr_db": -3000.0,
                  "round": {"num_classes": 2, "rho": 1e70}})  # rejected: noise power
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fd_section_rejected_at_load_or_runs_finite(section):
    with _load_or_run("fd", section) as run:
        if run is None:
            return
        if run.code == 1 and "losses became" in run.stderr:  # the SGD diverged
            return
        if not _ran(run, "fd_metrics.csv"):
            return
        header, row = (run.out / "fd_metrics.csv").read_text().splitlines()
        numbers = [x for name, x in zip(header.split(","), row.split(","))
                   if name != "aggregation" and x]  # a null snr_db is an empty cell
        assert all(math.isfinite(float(x)) for x in numbers)
