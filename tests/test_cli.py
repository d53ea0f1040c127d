import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import myga.cli as cli_mod
import myga.environments as env_mod
import myga.policy as policy_mod
import myga.simplex as simplex_mod
from myga.audit import theorem_bound_value
from myga.baselines import Exp4Config, Exp4Policy
from myga.cli import (ROUND_HEADER, SUMMARY_HEADER, ExperimentConfig,
                      build_config, emit_csv, execute, main, parse_config_file,
                      run)
from myga.environments import KINDS, EnvSpec, RoundData, generate, save_replay
from myga.policy import MygaConfig, MygaPolicy, schedule_parameters


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


def rounds_csv_rows(prefix):
    """The data rows of ``<prefix>_rounds.csv`` as lists of fields, after its header."""
    lines = open(prefix + "_rounds.csv").read().splitlines()
    assert lines[0] == ROUND_HEADER
    return [line.split(",") for line in lines[1:]]


def failing_generate(monkeypatch, seed, t):
    """Make ``cli.generate`` raise at round t of the given seed."""
    real_generate = cli_mod.generate

    def generate(spec, round_t):
        if (spec.seed, round_t) == (seed, t):
            raise RuntimeError("generator failed")
        return real_generate(spec, round_t)

    monkeypatch.setattr(cli_mod, "generate", generate)


class TestEmitCsv:
    def test_header_only_when_empty(self, tmp_path, monkeypatch):
        prefix = str(tmp_path / "empty")
        failing_generate(monkeypatch, seed=0, t=1)
        with pytest.raises(RuntimeError, match="generator failed"):
            execute(ExperimentConfig(env="zero_loss_expert", horizon=5, out=prefix))
        assert open(prefix + "_rounds.csv", "rb").read() == (ROUND_HEADER + "\n").encode()
        assert open(prefix + "_summary.csv", "rb").read() == (SUMMARY_HEADER + "\n").encode()

    def test_floats_round_trip_losslessly(self, tmp_path):
        path = tmp_path / "vals.csv"
        value = 0.1 + 0.2
        with open(path, "w", newline="\n") as fh:
            emit_csv(fh, [(0, value, 0.0, 0.0, 0.0, 1.5, 1)])
        line = open(path).read().splitlines()[0]
        assert float(line.split(",")[1]) == value
        assert "np.float64" not in line


class TestExecute:
    def base_config(self, **kwargs):
        defaults = dict(policy="myga", env="zero_loss_expert", num_arms=2,
                        num_experts=2, horizon=5, seeds=(0, 1), eta=0.3,
                        gamma=0.05, grid_denominator=20)
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def spy_emit_csv(self, monkeypatch):
        """Row counts of every ``cli.emit_csv`` call, in call order."""
        sizes = []
        real_emit_csv = cli_mod.emit_csv

        def spy(fh, rows):
            sizes.append(len(rows))
            real_emit_csv(fh, rows)

        monkeypatch.setattr(cli_mod, "emit_csv", spy)
        return sizes

    def test_summary_per_seed_in_ascending_order(self, monkeypatch):
        emitted = self.spy_emit_csv(monkeypatch)
        result = execute(self.base_config(seeds=(4, 1)))
        assert [r.seed for r in result.seed_results] == [1, 4]
        assert emitted == []
        assert result.exit_code == 0

    def test_round_rows_collected_only_with_out(self, tmp_path, monkeypatch):
        emitted = self.spy_emit_csv(monkeypatch)
        execute(self.base_config())
        assert emitted == []
        prefix = str(tmp_path / "demo")
        execute(self.base_config(out=prefix))
        rows = rounds_csv_rows(prefix)
        assert len(rows) == 2 * 5
        for row in rows:
            assert len(row) == len(ROUND_HEADER.split(","))
            assert int(row[2]) >= 1

    def test_empty_grid_run_is_clean(self, tmp_path, monkeypatch):
        # gamma = 1/2 leaves no threshold in (gamma, 1/2]: every play is the
        # solver's grid-free return and the residual's grid-free loop.
        solves = count_calls(monkeypatch, policy_mod, "_solve")
        prefix = str(tmp_path / "empty_grid")
        result = execute(self.base_config(env="adversarial_minority", num_arms=3,
                                          num_experts=4, horizon=500, eta=None,
                                          gamma=0.5, grid_denominator=None, out=prefix))
        assert result.exit_code == 0
        assert not result.any_violation
        assert solves and all(args[3] == [] for args in solves)
        rows = rounds_csv_rows(prefix)
        assert len(rows) == 2 * 500
        for row in rows:
            assert int(row[2]) >= 1
            assert row[11] == "0.0"
            assert row[12] == "0"

    def test_baseline_rows_use_placeholder_pivot_and_residual(self, tmp_path):
        prefix = str(tmp_path / "exp4")
        config = self.base_config(policy="exp4", out=prefix)
        execute(config)
        rows = rounds_csv_rows(prefix)
        assert len(rows) == 2 * 5
        for row in rows:
            assert row[2] == "0"
            assert float(row[11]) == 0.0

    def test_emit_csv_never_sees_more_than_one_chunk(self, tmp_path, monkeypatch):
        chunk = cli_mod.ROUND_CHUNK_ROWS
        config = self.base_config(policy="exp4", horizon=chunk + 5, out=str(tmp_path / "big"))
        emitted = self.spy_emit_csv(monkeypatch)
        execute(config)
        # Per seed: one full chunk, the seed's last rows, its summary row.
        assert emitted == [chunk, 5, 1, chunk, 5, 1]
        assert len(rounds_csv_rows(config.out)) == 2 * (chunk + 5)

    def test_chunk_size_leaves_bytes_unchanged(self, tmp_path, monkeypatch):
        whole = self.base_config(horizon=10, out=str(tmp_path / "whole"))
        execute(whole)
        monkeypatch.setattr(cli_mod, "ROUND_CHUNK_ROWS", 3)
        emitted = self.spy_emit_csv(monkeypatch)
        chunked = self.base_config(horizon=10, out=str(tmp_path / "chunked"))
        execute(chunked)
        assert max(emitted) == 3
        for suffix in ("_rounds.csv", "_summary.csv"):
            assert (open(whole.out + suffix, "rb").read()
                    == open(chunked.out + suffix, "rb").read())

    def test_failed_run_keeps_written_chunks(self, tmp_path, monkeypatch):
        complete = self.base_config(horizon=10, out=str(tmp_path / "complete"))
        execute(complete)
        monkeypatch.setattr(cli_mod, "ROUND_CHUNK_ROWS", 4)
        failing_generate(monkeypatch, seed=1, t=4 + 3)
        failed = self.base_config(horizon=10, out=str(tmp_path / "failed"))
        with pytest.raises(RuntimeError, match="generator failed"):
            execute(failed)
        # The header, all of seed 0, and seed 1's first chunk; seed 1 has
        # no summary row.
        rounds = open(failed.out + "_rounds.csv").read().splitlines()
        assert rounds == open(complete.out + "_rounds.csv").read().splitlines()[:1 + 10 + 4]
        summary = open(failed.out + "_summary.csv").read().splitlines()
        assert summary == open(complete.out + "_summary.csv").read().splitlines()[:2]

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
        assert (result.eta, result.gamma) == schedule_parameters(2, 2, 5, 0.0)
        assert result.eta > 0.0
        assert 0.0 < result.gamma <= 0.5

    @pytest.mark.parametrize("env, kwargs", [
        ("stochastic_gap", dict(num_experts=4, horizon=300, eta=None, gamma=None)),
        ("adversarial_minority", dict(num_arms=5, num_experts=8, horizon=300, eta=0.2,
                                      gamma=0.4)),
    ], ids=["stochastic_gap", "adversarial_minority"])
    def test_default_grid_denominator_is_twice_the_horizon(self, tmp_path, env, kwargs):
        # A run without grid_denominator writes the bytes of the same run at D = 2T.
        config = self.base_config(env=env, grid_denominator=None, **kwargs)
        execute(dataclasses.replace(config, out=str(tmp_path / "default")))
        execute(dataclasses.replace(config, grid_denominator=2 * config.horizon,
                                    out=str(tmp_path / "twice")))
        for suffix in ("_rounds.csv", "_summary.csv"):
            default = (tmp_path / ("default" + suffix)).read_bytes()
            assert default == (tmp_path / ("twice" + suffix)).read_bytes()
            assert default.count(b"\n") > 1

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

    @pytest.mark.parametrize("policy", ["exp4_threshold", "myga"])
    def test_replay_run_equals_the_run_it_was_saved_from(self, tmp_path, policy):
        # A saved environment replays to the bytes of the generated run,
        # past the first 1024-round chunk of generated rounds and the first
        # 1024-uniform block of the sample stream.
        spec = EnvSpec(kind="zero_loss_expert", num_arms=3, num_experts=4, horizon=1100, seed=1)
        path = str(tmp_path / "replay.txt")
        save_replay(path, [generate(spec, t) for t in range(1, 1101)])
        written = []
        for env, replay_path in (("replay", path), ("zero_loss_expert", None)):
            out = str(tmp_path / env)
            execute(ExperimentConfig(policy=policy, env=env, replay_path=replay_path,
                                     num_arms=3, num_experts=4, horizon=1100, seeds=(1,),
                                     out=out))
            written.append([open(out + suffix, "rb").read()
                            for suffix in ("_rounds.csv", "_summary.csv")])
        assert written[0] == written[1]
        assert written[0][0].count(b"\n") == 1 + 1100

    def write_replay(self, path, loss):
        """Six rounds of two experts on two arms, every arm losing ``loss``."""
        advices = np.array([[1.0, 0.0], [0.0, 1.0]])
        save_replay(path, [RoundData(advices=advices.copy(), losses=np.full(2, loss))
                           for _ in range(6)])

    # mtime: True moves it on past the first write, False leaves it as the
    # rewrite set it, "restored" sets it back to the first write's.
    @pytest.mark.parametrize("new_loss,mtime", [(0.0, True), (0.25, False),
                                                (0.5, "restored")])
    def test_replay_rewritten_between_runs_is_reparsed(self, tmp_path, new_loss, mtime):
        path = str(tmp_path / "replay.txt")
        config = self.base_config(env="replay", replay_path=path, horizon=6,
                                  seeds=(0,))
        self.write_replay(path, 1.0)
        first = execute(config)
        stamp = os.stat(path)
        self.write_replay(path, new_loss)
        if mtime is True:
            # Same size, and two writes can share a coarse file-system
            # timestamp: move the mtime on as a later rewrite would.
            os.utime(path, ns=(stamp.st_mtime_ns + 10 ** 9, stamp.st_mtime_ns + 10 ** 9))
        elif mtime == "restored":
            # Same size and mtime, as cp -p, rsync -t or tar x leave a file.
            # The ctime moves, once a coarse file-system clock has ticked.
            os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            while os.stat(path).st_ctime_ns == stamp.st_ctime_ns:
                time.sleep(0.01)
                os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            assert os.stat(path).st_mtime_ns == stamp.st_mtime_ns
        second = execute(config)
        assert first.seed_results[0].report.total_play_loss == pytest.approx(6.0, abs=1e-9)
        assert second.seed_results[0].report.total_play_loss == pytest.approx(
            6 * new_loss, abs=1e-9)

    def test_replay_rewritten_between_seeds_is_not_followed(self, tmp_path, monkeypatch):
        # Every seed plays the file read at set-up, even when it is rewritten,
        # with a later mtime, before the next seed starts.
        path = str(tmp_path / "replay.txt")
        self.write_replay(path, 1.0)
        real_generate = cli_mod.generate

        def generate(spec, t):
            if (spec.seed, t) == (1, 1):
                stamp = os.stat(path).st_mtime_ns + 10 ** 9
                self.write_replay(path, 0.0)
                os.utime(path, ns=(stamp, stamp))
            return real_generate(spec, t)

        monkeypatch.setattr(cli_mod, "generate", generate)
        result = execute(self.base_config(env="replay", replay_path=path, horizon=6,
                                          seeds=(0, 1)))
        assert [r.report.total_play_loss for r in result.seed_results] == [
            pytest.approx(6.0, abs=1e-9)] * 2

    def test_unchanged_replay_is_parsed_once(self, tmp_path, monkeypatch):
        # Repeated runs on one file keep one parse: the benchmark's measuring
        # process runs ``execute`` again and again on its replay.
        path = str(tmp_path / "replay.txt")
        self.write_replay(path, 1.0)
        parsed = []
        real_load_replay = env_mod.load_replay

        def load_replay(load_path):
            parsed.append(load_path)
            return real_load_replay(load_path)

        monkeypatch.setattr(env_mod, "load_replay", load_replay)
        config = self.base_config(env="replay", replay_path=path, horizon=6)
        first, second = execute(config), execute(config)
        assert parsed == [path]
        assert ([r.report.total_play_loss for r in first.seed_results]
                == [r.report.total_play_loss for r in second.seed_results])

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

    def test_main_nan_replay_loss_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        # Arm 1 is never played: expert 1 puts all its mass on arm 0.
        path.write_text("2 1 2\n0.5 0.5\n1.0 0.0\n0.5 nan\n1.0 0.0\n")
        code = main(["--policy", "exp4", "--env", "replay", "--replay", str(path),
                     "--arms", "2", "--experts", "1", "--horizon", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "myga: error: line 4: losses outside [0, 1]" in err

    def test_main_missing_config_file(self, capsys):
        code = main(["--config", "/nonexistent/run.cfg"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    def test_main_bad_flag_value_exits_one(self, capsys):
        code = main(["--policy", "greedy"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("key,value", [("arms", "x"), ("audit", "maybe"), ("seed", "1,a")])
    def test_main_bad_value_names_its_key(self, tmp_path, capsys, key, value):
        # Flag and file values go through one parser, which names the key.
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        for argv in (["--" + key, value], ["--config", str(path)]):
            assert main(argv) == 1
            assert f"myga: error: {key}: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags,message", [
        (["--arms", "1"], "need at least 2 arms"),
        (["--gamma", "0.013", "--horizon", "100"], "gamma 0.013 off the 1/200 lattice"),
        (["--env", "replay", "--replay", "{dir}/absent.txt"],
         "[Errno 2] No such file or directory: '{dir}/absent.txt'"),
        (["--env", "replay", "--replay", "{dir}/short.txt", "--horizon", "2"],
         "line 4: file truncated inside round 1"),
        (["--env", "replay", "--replay", "{dir}/three_arms.txt", "--horizon", "2",
          "--arms", "2", "--experts", "1"],
         "replay has 3 arms and 1 experts, the run has 2 and 1"),
        (["--env", "replay"], "replay kind needs replay_path"),
        (["--eta", "nan"], "eta must be positive"),
        (["--eta", "inf"], "eta must be positive"),
        (["--policy", "exp4", "--eta", "nan"], "eta must be positive"),
        (["--policy", "exp4", "--eta", "inf"], "eta must be positive"),
        (["--lstar", "nan"], "cumulative-loss budget must be non-negative"),
        (["--lstar", "inf"], "cumulative-loss budget must be non-negative"),
        (["--delta", "nan"], "stochastic_gap needs mu_star in [0,1], delta >= 0"),
        (["--delta", "inf"], "stochastic_gap needs mu_star in [0,1], delta >= 0"),
        # The bound's factor is the constant cli.BOUND_FACTOR, no setting.
        (["--bound-factor", "10"], "unrecognized arguments: --bound-factor 10"),
        (["--config", "{dir}/bound_factor.cfg"], "unknown configuration key 'bound_factor'"),
        # The thresholded baseline takes the myga rule's gamma interval.
        (["--policy", "exp4_threshold", "--gamma", "0"], "gamma must lie in (0, 1/2]"),
        (["--policy", "exp4_threshold", "--gamma", "0.7"], "gamma must lie in (0, 1/2]"),
        (["--seed", "1,1"], "seed 1 is listed twice"),
        (["--seed", "3,0,2,0"], "seed 0 is listed twice"),
        # The lattice rule's D >= 2 clause is checked with the schedule:
        # after the environment and the loss budget, before eta and gamma.
        (["--grid-denominator=1"], "grid denominator must be at least 2"),
        (["--grid-denominator=0"], "grid denominator must be at least 2"),
        (["--grid-denominator=-4"], "grid denominator must be at least 2"),
        (["--policy", "exp4", "--grid-denominator=1"], "grid denominator must be at least 2"),
        (["--policy", "exp4", "--grid-denominator=0"], "grid denominator must be at least 2"),
        (["--policy", "exp4", "--grid-denominator=-4"], "grid denominator must be at least 2"),
        (["--grid-denominator=0", "--arms", "1"], "need at least 2 arms"),
        (["--grid-denominator=0", "--lstar", "nan"],
         "cumulative-loss budget must be non-negative"),
        (["--grid-denominator=0", "--eta", "nan", "--gamma", "0.013"],
         "grid denominator must be at least 2"),
        (["--policy", "exp4", "--grid-denominator=0", "--eta", "nan"],
         "grid denominator must be at least 2"),
    ], ids=["one_arm", "off_lattice_gamma", "missing_replay", "malformed_replay",
            "replay_shape", "replay_without_path", "eta_nan", "eta_inf", "exp4_eta_nan",
            "exp4_eta_inf", "lstar_nan", "lstar_inf", "delta_nan", "delta_inf",
            "bound_factor_flag", "bound_factor_key", "exp4_threshold_gamma_0",
            "exp4_threshold_gamma_0.7",
            "repeated_seed", "repeated_seed_unsorted", "denominator_1", "denominator_0",
            "denominator_neg4", "exp4_denominator_1", "exp4_denominator_0",
            "exp4_denominator_neg4", "arms_before_denominator",
            "lstar_before_denominator", "denominator_before_eta",
            "exp4_denominator_before_eta"])
    def test_main_set_up_error_leaves_output_files(self, tmp_path, capsys, flags, message):
        # The run is resolved before either CSV file is opened: an earlier
        # run's rounds file keeps its bytes and no summary file appears.
        (tmp_path / "short.txt").write_text("2 2 2\n0.5 0.5\n1.0 0.0\n")
        (tmp_path / "three_arms.txt").write_text(
            "3 1 2\n0.5 0.5 0.5\n1.0 0.0 0.0\n0.5 0.5 0.5\n0.0 1.0 0.0\n")
        (tmp_path / "bound_factor.cfg").write_text("bound_factor=10\n")
        prefix = str(tmp_path / "run")
        earlier = ROUND_HEADER.encode() + b"\n0,1,1,0,0.5,0.5,0.5,0.0,0.5,0.5,0.0,0.0,0\n"
        with open(prefix + "_rounds.csv", "wb") as fh:
            fh.write(earlier)
        argv = [flag.format(dir=tmp_path) for flag in flags] + ["--out", prefix]
        assert main(argv) == 1
        assert f"myga: error: {message.format(dir=tmp_path)}\n" in capsys.readouterr().err
        assert open(prefix + "_rounds.csv", "rb").read() == earlier
        assert not os.path.exists(prefix + "_summary.csv")

    @pytest.mark.parametrize("flags", [["--lstar", "1e308"]], ids=["lstar_1e308"])
    def test_main_extreme_valid_values_exit_zero(self, capsys, flags):
        # K * l_star overflows to inf at l_star 1e308.
        code = main(["--env", "stochastic_gap", "--arms", "2", "--experts", "4",
                     "--horizon", "5", "--grid-denominator", "10"] + flags)
        assert capsys.readouterr().err == ""
        assert code == 0

    def test_large_lstar_writes_a_finite_bound(self, tmp_path, capsys):
        # K * log(E*T) * l_star overflows at l_star 1e308; the bound's roots
        # are then taken in turn, so the summary keeps a finite bound.
        prefix = str(tmp_path / "large")
        code = main(["--env", "stochastic_gap", "--arms", "2", "--experts", "4",
                     "--horizon", "5", "--grid-denominator", "10", "--lstar", "1e308",
                     "--out", prefix])
        capsys.readouterr()
        assert code == 0
        lines = open(prefix + "_summary.csv").read().splitlines()
        assert lines[0] == SUMMARY_HEADER
        row = dict(zip(SUMMARY_HEADER.split(","), lines[1].split(",")))
        assert row["bound_value"] == repr(theorem_bound_value(2, 4, 5, 1e308))
        assert float(row["bound_value"]) == pytest.approx(2.4477468306808166e154, rel=1e-14)
        assert row["bound_pass"] == "1"

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


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from now on; returns the growing list of calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestChecksAtSource:
    """Every advice row a run plays is checked once, where it was made."""

    HORIZON = 1100   # two chunks of generated rounds per seed

    def config(self, policy, env, **kwargs):
        return ExperimentConfig(policy=policy, env=env, num_arms=3, num_experts=4,
                                horizon=self.HORIZON, seeds=(0, 1), eta=0.3, gamma=0.05,
                                grid_denominator=200, **kwargs)

    @pytest.mark.parametrize("policy", ["myga", "exp4_threshold"])
    @pytest.mark.parametrize("env", KINDS)
    def test_execute_checks_each_chunk_and_parse_once(self, tmp_path, monkeypatch,
                                                      policy, env):
        kwargs = {}
        if env == "replay":
            path = str(tmp_path / "rounds.txt")
            spec = EnvSpec(kind="adversarial_minority", num_arms=3, num_experts=4,
                           horizon=self.HORIZON, seed=5)
            save_replay(path, [generate(spec, t) for t in range(1, self.HORIZON + 1)])
            kwargs["replay_path"] = path
        row_checks = count_calls(monkeypatch, simplex_mod, "require_distribution_rows")
        block_checks = count_calls(monkeypatch, simplex_mod, "distribution_rows")
        chunks = count_calls(monkeypatch, env_mod, "_chunk")
        execute(self.config(policy, env, **kwargs))
        assert row_checks == []
        if env == "replay":
            assert chunks == []
            assert len(block_checks) == 1   # the parse's
            assert block_checks[0][0].shape == (self.HORIZON, 4, 3)
        else:
            assert len(chunks) == 4         # two seeds of two chunks
            assert len(block_checks) == len(chunks)
            assert all(args[0].shape == (1024, 4, 3) for args in block_checks)

    @pytest.mark.parametrize("policy", ["myga", "exp4_threshold"])
    def test_direct_advise_checks_each_distinct_play(self, monkeypatch, policy):
        spec = EnvSpec(kind="stochastic_gap", num_arms=3, num_experts=4, horizon=300, seed=0)
        if policy == "myga":
            pol = MygaPolicy(MygaConfig(num_arms=3, num_experts=4, eta=0.3,
                                        gamma=0.05, grid_denominator=200), sample_rng=0)
        else:
            pol = Exp4Policy(Exp4Config(num_arms=3, num_experts=4, eta=0.3, gamma=0.05),
                             sample_rng=0)
        plays = count_calls(monkeypatch, pol, "_play")
        row_checks = count_calls(monkeypatch, simplex_mod, "require_distribution_rows")
        for t in range(1, 301):
            data = generate(spec, t)
            p, _ = pol.advise(data.advices)
            arm = pol.sample(p)
            pol.update(arm, float(data.losses[arm]))
        assert 0 < len(plays) < 300   # zero-loss rounds with the same advice repeat a play
        assert len(row_checks) == len(plays)

    def test_a_bad_generated_block_stops_the_run(self, tmp_path, monkeypatch, capsys):
        # Chunk 1 of every seed draws an advice row that sums to 1.5: round
        # 1030 (row 5 of the chunk), expert 2.
        real_default_rng = np.random.default_rng

        class SpoiledDraw:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def dirichlet(self, *args, **kwargs):
                draw = self.rng.dirichlet(*args, **kwargs)
                draw[5, 2, 0] += 0.5
                return draw

        def default_rng(seed=None):
            rng = real_default_rng(seed)
            if isinstance(seed, list) and seed[1:] == [env_mod._CHUNK_SALT, 1]:
                return SpoiledDraw(rng)
            return rng

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        monkeypatch.setattr(cli_mod, "ROUND_CHUNK_ROWS", 512)
        prefix = str(tmp_path / "spoiled")
        message = "generated advice of round 1030, expert 2, is not a distribution"
        with pytest.raises(RuntimeError, match=message):
            execute(self.config("exp4_threshold", "zero_loss_expert", out=prefix))
        written = [int(row[1]) for row in rounds_csv_rows(prefix)]
        assert written == list(range(1, 1025))   # every row of chunk 0, none of chunk 1
        code = main(["--policy", "exp4_threshold", "--env", "zero_loss_expert",
                     "--arms", "3", "--experts", "4", "--horizon", str(self.HORIZON),
                     "--seed", "0", "--out", prefix])
        assert code == 3
        assert f"myga: internal error: {message}" in capsys.readouterr().err
        assert [int(row[1]) for row in rounds_csv_rows(prefix)] == written


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

    def test_help_runs_without_runtime_warning(self):
        # ``python -m myga.cli`` warns if importing the package already
        # imported ``myga.cli``.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "myga.cli", "--help"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr

    def test_bad_usage_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "myga.cli", "--horizon", "not-a-number"],
            capture_output=True, text=True)
        assert proc.returncode == 1


@pytest.mark.parametrize("fields, message", [
    pytest.param({"env": "drifting"}, f"env 'drifting' not one of {KINDS}", id="env"),
    pytest.param({"seeds": ()}, "need at least one seed", id="seeds"),
])
def test_out_of_range_config_values_are_named(fields, message):
    with pytest.raises(ValueError) as raised:
        ExperimentConfig(**fields)
    assert str(raised.value) == message
