import os
import subprocess
import sys

import numpy as np
import pytest

import myga.cli as cli_mod
import myga.policy as policy_mod
from myga.cli import (ROUND_HEADER, SUMMARY_HEADER, ExperimentConfig,
                      build_config, emit_csv, execute, main, parse_config_file,
                      run)
from myga.environments import RoundData, save_replay


class TestParseConfigFile:
    def test_reads_flat_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# demo\npolicy=myga\n\nhorizon = 40\nseeds=1,2\n")
        values = parse_config_file(str(path))
        assert values == {"policy": "myga", "horizon": "40", "seeds": "1,2"}

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("policy=myga\nhorizon 40\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config_file(str(path))


class TestBuildConfig:
    def test_defaults(self):
        config = build_config([])
        assert config.policy == "myga"
        assert config.env == "stochastic_gap"
        assert config.seeds == (0,)
        assert config.audit is True

    def test_config_file_then_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("policy=exp4\nhorizon=25\narms=3\n")
        config = build_config(["--config", str(path), "--horizon", "60"])
        assert config.policy == "exp4"
        assert config.horizon == 60
        assert config.num_arms == 3

    def test_seed_list_and_booleans(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds=5,3,4\naudit=false\n")
        config = build_config(["--config", str(path)])
        assert config.seeds == (5, 3, 4)
        assert config.audit is False

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate=0.5\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            build_config(["--config", str(path)])

    def test_bad_policy_value(self):
        with pytest.raises(ValueError, match="policy"):
            ExperimentConfig(policy="greedy")

    def test_flag_only_config(self):
        config = build_config(["--policy", "exp4_threshold", "--env",
                               "zero_loss_expert", "--seed", "7", "--gamma",
                               "0.05", "--lstar", "10"])
        assert config.policy == "exp4_threshold"
        assert config.env == "zero_loss_expert"
        assert config.seeds == (7,)
        assert config.gamma == 0.05
        assert config.l_star == 10.0


class TestEmitCsv:
    def test_header_only_when_empty(self, tmp_path):
        prefix = str(tmp_path / "empty")
        rounds_path, summary_path = emit_csv([], [], prefix)
        assert open(rounds_path, "rb").read() == (ROUND_HEADER + "\n").encode()
        assert open(summary_path, "rb").read() == (SUMMARY_HEADER + "\n").encode()

    def test_floats_round_trip_losslessly(self, tmp_path):
        prefix = str(tmp_path / "vals")
        value = 0.1 + 0.2
        _, summary_path = emit_csv([], [(0, value, 0.0, 0.0, 0.0, 1.5, 1)], prefix)
        line = open(summary_path).read().splitlines()[1]
        assert float(line.split(",")[1]) == value
        assert "np.float64" not in line


class TestExecute:
    def base_config(self, **kwargs):
        defaults = dict(policy="myga", env="zero_loss_expert", num_arms=2,
                        num_experts=2, horizon=5, seeds=(0, 1), eta=0.3,
                        gamma=0.05, grid_denominator=20)
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_summary_per_seed_in_ascending_order(self):
        result = execute(self.base_config(seeds=(4, 1)))
        assert [r.seed for r in result.seed_results] == [1, 4]
        assert [row[0] for row in result.summary_rows] == [1, 4]
        assert result.round_rows == []
        assert result.exit_code == 0

    def test_round_rows_collected_only_with_out(self, tmp_path):
        prefix = str(tmp_path / "demo")
        result = execute(self.base_config(out=prefix))
        assert len(result.round_rows) == 2 * 5
        for row in result.round_rows:
            assert len(row) == len(ROUND_HEADER.split(","))
            assert row[2] >= 1
        rounds_lines = open(prefix + "_rounds.csv").read().splitlines()
        assert rounds_lines[0] == ROUND_HEADER
        assert len(rounds_lines) == 1 + 10

    def test_baseline_rows_use_placeholder_pivot_and_residual(self, tmp_path):
        prefix = str(tmp_path / "exp4")
        config = self.base_config(policy="exp4", out=prefix)
        result = execute(config)
        for row in result.round_rows:
            assert row[2] == 0
            assert row[11] == 0.0

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        config_a = self.base_config(horizon=20, out=str(tmp_path / "a"))
        config_b = self.base_config(horizon=20, out=str(tmp_path / "b"))
        execute(config_a)
        execute(config_b)
        for suffix in ("_rounds.csv", "_summary.csv"):
            a = open(str(tmp_path / "a") + suffix, "rb").read()
            b = open(str(tmp_path / "b") + suffix, "rb").read()
            assert a == b

    def test_scheduled_parameters_recorded(self):
        config = self.base_config(eta=None, gamma=None, grid_denominator=None,
                                  l_star=0.0)
        result = execute(config)
        for seed_result in result.seed_results:
            assert seed_result.eta > 0.0
            assert 0.0 < seed_result.gamma <= 0.5

    def test_replay_environment(self, tmp_path):
        rng = np.random.default_rng(19)
        rounds = [RoundData(advices=rng.dirichlet(np.ones(2), size=2),
                            losses=rng.uniform(size=2)) for _ in range(6)]
        path = str(tmp_path / "replay.txt")
        save_replay(path, rounds)
        config = self.base_config(env="replay", replay_path=path, horizon=6,
                                  seeds=(0,))
        result = execute(config)
        assert result.exit_code == 0
        assert result.seed_results[0].report.rounds == 6

    @pytest.mark.parametrize("new_loss,bump_mtime", [(0.0, True), (0.25, False)])
    def test_replay_rewritten_between_runs_is_reparsed(self, tmp_path, new_loss,
                                                       bump_mtime):
        path = str(tmp_path / "replay.txt")
        advices = np.array([[1.0, 0.0], [0.0, 1.0]])

        def write(loss):
            save_replay(path, [RoundData(advices=advices.copy(), losses=np.full(2, loss))
                               for _ in range(6)])

        config = self.base_config(env="replay", replay_path=path, horizon=6,
                                  seeds=(0,))
        write(1.0)
        first = execute(config)
        stamp = os.stat(path).st_mtime_ns
        write(new_loss)
        if bump_mtime:
            # Same size, and two writes can share a coarse file-system
            # timestamp: move the mtime on as a later rewrite would.
            os.utime(path, ns=(stamp + 10 ** 9, stamp + 10 ** 9))
        second = execute(config)
        assert first.seed_results[0].report.total_play_loss == pytest.approx(6.0, abs=1e-9)
        assert second.seed_results[0].report.total_play_loss == pytest.approx(
            6 * new_loss, abs=1e-9)

    def test_corrupted_run_exits_two(self, corrupted_solve):
        result = execute(self.base_config(seeds=(0,)))
        assert result.any_violation
        assert result.exit_code == 2

    def test_audit_disabled_ignores_corruption(self, corrupted_solve):
        result = execute(self.base_config(seeds=(0,), audit=False))
        assert not result.any_violation
        assert result.exit_code == 0


class TestRunAndMain:
    def test_run_prints_one_line_per_seed(self, capsys):
        config = ExperimentConfig(policy="myga", env="zero_loss_expert",
                                  horizon=5, seeds=(0, 1), eta=0.3, gamma=0.05,
                                  grid_denominator=20)
        code = run(config)
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 2
        assert out[0].startswith("seed=0 R_T=")
        assert "violations=0" in out[0]
        assert out[1].startswith("seed=1 ")

    def test_main_happy_path(self, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        code = main(["--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.05",
                     "--grid-denominator", "20", "--out", prefix])
        capsys.readouterr()
        assert code == 0
        assert open(prefix + "_rounds.csv").readline().strip() == ROUND_HEADER

    def test_main_unwritable_out_fails_before_round_one(self, tmp_path, monkeypatch,
                                                         capsys):
        rounds_generated = []
        real_generate = cli_mod.generate

        def counting_generate(spec, t):
            rounds_generated.append(t)
            return real_generate(spec, t)

        monkeypatch.setattr(cli_mod, "generate", counting_generate)
        code = main(["--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.05", "--grid-denominator", "20",
                     "--out", str(tmp_path / "missing_dir" / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err
        assert rounds_generated == []

    def test_main_missing_config_file(self, capsys):
        code = main(["--config", "/nonexistent/run.cfg"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    def test_main_bad_flag_value_exits_one(self, capsys):
        code = main(["--policy", "greedy"])
        capsys.readouterr()
        assert code == 1

    def test_main_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense=1\n")
        code = main(["--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown configuration key" in err

    def test_main_off_lattice_gamma_exits_one(self, capsys):
        code = main(["--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.051",
                     "--grid-denominator", "20"])
        err = capsys.readouterr().err
        assert code == 1
        assert "lattice" in err

    @pytest.mark.parametrize("policy", ["myga", "exp4_threshold"])
    def test_main_negative_seed_exits_one(self, capsys, policy):
        code = main(["--policy", policy, "--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.05", "--grid-denominator", "20",
                     "--seed=2,-3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "myga: error: seed -3 is negative" in err

    def test_main_corruption_exits_two(self, capsys, corrupted_solve):
        code = main(["--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.05",
                     "--grid-denominator", "20"])
        capsys.readouterr()
        assert code == 2

    def test_main_internal_invariant_failure_exits_three(self, capsys, monkeypatch):
        def failing_solve(*args, **kwargs):
            raise RuntimeError("fixed-point residual 1.000e-03 exceeds 1.0e-09")

        monkeypatch.setattr(policy_mod, "_solve", failing_solve)
        code = main(["--env", "zero_loss_expert", "--horizon", "5",
                     "--eta", "0.3", "--gamma", "0.05",
                     "--grid-denominator", "20"])
        err = capsys.readouterr().err
        assert code == 3
        assert "internal error" in err and "residual" in err


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        prefix = str(tmp_path / "sub")
        proc = subprocess.run(
            [sys.executable, "-m", "myga.cli", "--env", "zero_loss_expert",
             "--horizon", "5", "--eta", "0.3", "--gamma", "0.05",
             "--grid-denominator", "20", "--out", prefix],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("seed=0 R_T=")

    def test_bad_usage_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "myga.cli", "--horizon", "not-a-number"],
            capture_output=True, text=True)
        assert proc.returncode == 1
