import json

import pytest

from scene_sim.cli import ConfigError, load_config, main


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

    def test_overrides_reflected_in_echo(self, tmp_path):
        run_cli([
            "round", "--seed", 1, "--out", tmp_path,
            "--snr-db", 10, "--s", 4, "--m", 4,
        ])
        echoed = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echoed["round"]["snr_db"] == 10.0
        assert echoed["round"]["s"] == 4
        assert echoed["round"]["m"] == 4

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
        assert f"round.{key}" in capsys.readouterr().err
        assert not (tmp_path / "config_resolved.json").exists()

    def test_estimator_both_rejected(self, tmp_path, capsys):
        # a round runs one estimator; "both" used to run scene silently
        code = run_cli(["round", "--seed", 7, "--out", tmp_path, "--estimator", "both"])
        assert code == 1
        assert "both" in capsys.readouterr().err


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

    def test_estimator_override(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        run_cli(["sweep", "--config", cfg, "--seed", 5, "--out", tmp_path,
                 "--estimator", "both"])
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
        ("--model", "diagonal"), ("--estimator", "ratio"),
    ])
    def test_per_field_flags_rejected(self, tmp_path, capsys, flag, value):
        # the crossover grid has no such field; the flag used to be ignored
        assert run_cli(["crossover", "--out", tmp_path, flag, value]) == 1
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
    ])
    def test_bad_grid_rejected_at_load(self, tmp_path, capsys, section):
        # these used to write config_resolved.json and then fail in the run,
        # or, for a negative pilot cost or an empty list, exit 0 with a
        # header-only crossover.csv
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"crossover": section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), "crossover")
        out = tmp_path / "out"
        assert run_cli(["crossover", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [
        {"estimator": "ratio"},
        {"trials": 1},
        {"sm_pairs": [[1, 1], [2, 2], [4, 1]]},
        {"snr_db_values": [5.0, 10.0]},
    ], ids=["ratio_only", "one_trial", "two_products", "several_snrs"])
    def test_unfittable_sweep_rejected_at_load(self, tmp_path, capsys, sweep):
        # the first two used to print "using fitted c_nc = nan", write nan
        # rows and exit 0; the last two wrote config_resolved.json first
        section = {
            "estimate_c_nc": True,
            "sweep": {"sm_pairs": [[1, 1], [2, 2], [4, 4]], "trials": 50, **sweep},
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"crossover": section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), "crossover")
        out = tmp_path / "out"
        assert run_cli(["crossover", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_fitted_constant_replaces_configured(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "crossover": {
                "budgets": [100],
                "pilot_costs": [0, 50],
                "constant_pairs": [[1.0, 99.0]],
                "num_classes": 10,
                "estimate_c_nc": True,
                "sweep": {
                    "population": {"n_devices": 3},
                    "labels": {"kind": "dirichlet", "num_classes": 10, "alpha": 0.3},
                    "sm_pairs": [[1, 1], [2, 2], [4, 4]],
                    "snr_db_values": [5.0],
                    "channel_model": "diagonal",
                    "trials": 2000,
                },
            }
        }))
        assert run_cli(["crossover", "--config", cfg, "--seed", 4, "--out", tmp_path]) == 0
        assert "fitted c_nc" in capsys.readouterr().out
        rows = (tmp_path / "crossover.csv").read_text().splitlines()[1:]
        # the placeholder constant 99.0 must have been replaced by the fit
        assert all(float(r.split(",")[3]) < 1.0 for r in rows)


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

    def test_estimator_both_rejected(self, tmp_path, capsys):
        cfg = self.fd_config(tmp_path)
        code = run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path,
                        "--estimator", "both"])
        assert code == 1
        assert "both" in capsys.readouterr().err
        assert not (tmp_path / "fd_metrics.csv").exists()

    def test_rho_override(self, tmp_path):
        cfg = self.fd_config(tmp_path)
        run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path, "--rho", 0.25])
        echoed = json.loads((tmp_path / "config_resolved.json").read_text())
        assert echoed["fd"]["rho_rule"] == "fixed"
        assert echoed["fd"]["round"]["rho"] == 0.25

    @pytest.mark.parametrize("key, value", [
        ("num_classes", 3), ("use_reference_re", True), ("noise_var", 7.0),
    ])
    def test_round_conflict_rejected(self, tmp_path, capsys, key, value):
        # fd sets these from data, aggregation and snr_db; a conflicting value
        # used to be overwritten silently
        cfg = self.fd_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["fd"]["round"][key] = value
        cfg.write_text(json.dumps(raw))
        code = run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path / "out"])
        assert code == 1
        assert f"round.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snr_override(self, tmp_path):
        cfg = self.fd_config(tmp_path)
        run_cli(["fd", "--config", cfg, "--seed", 2, "--out", tmp_path,
                 "--snr-db", 10])
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
        # used to write config_resolved.json and fail only when the round ran
        out = tmp_path / "out"
        assert run_cli([command, "--out", out, flag, 0]) == 1
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
        ],
    )
    def test_ranges_checked_at_load(self, tmp_path, capsys, command, section):
        # a negative cap used to pass or fail with the drawn seed
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: section}))
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
        ],
    )
    def test_fd_training_settings_checked_at_load(self, tmp_path, capsys, section):
        # these used to exit 0 at chance-level accuracy, or for batch_size 0
        # write config_resolved.json and then fail inside the SGD loop
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"fd": section}))
        with pytest.raises(ConfigError):
            load_config(str(cfg), "fd")
        out = tmp_path / "out"
        assert run_cli(["fd", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_fd_zero_epochs_still_load(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"fd": {"pretrain_epochs": 0, "distill_epochs": 0,
                                          "data": {"noise_std": 0.0}}}))
        spec = load_config(str(cfg), "fd")
        assert spec.pretrain_epochs == spec.distill_epochs == 0

    @pytest.mark.parametrize("command", ["round", "sweep", "crossover", "fd"])
    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        # sweep --threads 0 used to exit 0 and run serially
        out = tmp_path / "out"
        assert run_cli([command, "--threads", threads, "--out", out]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["round", "sweep", "fd"])
    @pytest.mark.parametrize("flag", ["--snr-db", "--rho"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, command, flag, value):
        # sweep --snr-db nan used to run noise-free and write empty snr_db cells
        out = tmp_path / "out"
        assert run_cli([command, f"{flag}={value}", "--out", out]) == 1
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
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({command: {"rho_rule": rule, "rho_value": 0.0}}))
        with pytest.raises(ConfigError, match="rho_value"):
            load_config(str(cfg), command)
        out = tmp_path / "out"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert not out.exists()

    def test_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sweep": {"trials": "many"}}))
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 1
        assert "trials" in capsys.readouterr().err
