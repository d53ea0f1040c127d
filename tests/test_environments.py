import dataclasses
import locale
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import myga.environments as env_mod
from myga.cli import SAMPLE_STREAM_SALT, ExperimentConfig
from myga.environments import (EnvSpec, Replay, RoundData, generate, load_replay,
                               open_replay, save_replay)
from environment_reference import ROUNDS, adversarial_minority_round
from environment_reference import save_replay as joined_save_replay
import numpy_reference as ref


def spec_for(kind, **kwargs):
    defaults = dict(kind=kind, num_arms=3, num_experts=4, horizon=50, seed=7)
    defaults.update(kwargs)
    return EnvSpec(**defaults)


class TestEnvSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            spec_for("drifting")

    def test_replay_needs_path(self):
        # The configuration names the file; the spec carries its parse.
        with pytest.raises(ValueError, match="replay kind needs replay_path"):
            ExperimentConfig(env="replay")
        with pytest.raises(ValueError, match="replay kind needs a parsed replay"):
            spec_for("replay")

    def test_replay_must_fit_the_run(self):
        # Three arms, four experts and two rounds, against spec_for's
        # three arms, four experts and 50 rounds.
        replay = Replay(losses=np.zeros((2, 3)), advices=np.full((2, 4, 3), 1.0 / 3.0))
        assert spec_for("replay", horizon=2, replay=replay).replay is replay
        with pytest.raises(ValueError, match="replay has 3 arms and 4 experts, "
                                             "the run has 2 and 4"):
            spec_for("replay", horizon=2, num_arms=2, replay=replay)
        with pytest.raises(ValueError, match="replay has 3 arms and 4 experts, "
                                             "the run has 3 and 5"):
            spec_for("replay", horizon=2, num_experts=5, replay=replay)
        with pytest.raises(ValueError, match="replay holds 2 rounds, horizon is 3"):
            spec_for("replay", horizon=3, replay=replay)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 40)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is negative"):
            spec_for("stochastic_gap", seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed!r} is not an integer"):
            spec_for("stochastic_gap", seed=seed)

    def test_integer_like_seed_becomes_int(self):
        spec = spec_for("stochastic_gap", seed=np.int64(5))
        assert type(spec.seed) is int and spec.seed == 5

    def test_stochastic_gap_parameter_ranges(self):
        with pytest.raises(ValueError, match="mu_star"):
            spec_for("stochastic_gap", mu_star=1.5)
        with pytest.raises(ValueError, match="mu_star"):
            spec_for("stochastic_gap", delta=-0.1)


class TestPurity:
    @pytest.mark.parametrize("kind", ["zero_loss_expert", "stochastic_gap",
                                      "adversarial_minority"])
    def test_same_round_reproduces_bitwise(self, kind):
        spec = spec_for(kind)
        for t in (1, 7, 50):
            first = generate(spec, t)
            second = generate(spec, t)
            np.testing.assert_array_equal(first.advices, second.advices)
            np.testing.assert_array_equal(first.losses, second.losses)

    @pytest.mark.parametrize("kind", ["zero_loss_expert", "stochastic_gap",
                                      "adversarial_minority"])
    def test_order_independent(self, kind):
        spec = spec_for(kind)
        forward = [generate(spec, t).losses for t in range(1, 11)]
        backward = [generate(spec, t).losses for t in range(10, 0, -1)]
        for fwd, bwd in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(fwd, bwd)

    def test_different_seeds_differ(self):
        a = generate(spec_for("zero_loss_expert", seed=1), 1)
        b = generate(spec_for("zero_loss_expert", seed=2), 1)
        assert not np.array_equal(a.losses, b.losses) or \
            not np.array_equal(a.advices, b.advices)

    def test_round_out_of_range(self):
        spec = spec_for("zero_loss_expert")
        with pytest.raises(ValueError, match="round"):
            generate(spec, 0)
        with pytest.raises(ValueError, match="round"):
            generate(spec, 51)


class TestZeroLossExpert:
    def test_expert_zero_always_wins(self):
        spec = spec_for("zero_loss_expert", num_arms=4, num_experts=3, horizon=200)
        for t in range(1, 201):
            data = generate(spec, t)
            clean_arm = int(np.argmax(data.advices[0]))
            assert data.advices[0, clean_arm] == 1.0
            assert data.advices[0].sum() == 1.0
            assert data.losses[clean_arm] == 0.0

    def test_rows_are_distributions_and_losses_bounded(self):
        spec = spec_for("zero_loss_expert")
        for t in range(1, 51):
            data = generate(spec, t)
            for row in data.advices:
                assert ref.validate(row, tol=1e-9)
            assert np.all((data.losses >= 0.0) & (data.losses <= 1.0))


class TestStochasticGap:
    def test_expert_advice_is_cyclic_point_mass(self):
        spec = spec_for("stochastic_gap", num_arms=3, num_experts=5)
        data = generate(spec, 1)
        for e in range(5):
            expected = np.zeros(3)
            expected[e % 3] = 1.0
            np.testing.assert_array_equal(data.advices[e], expected)

    def test_degenerate_means_are_deterministic(self):
        spec = spec_for("stochastic_gap", mu_star=0.0, delta=1.0, num_arms=3)
        for t in range(1, 51):
            losses = generate(spec, t).losses
            assert losses[0] == 0.0
            assert losses[1] == 1.0
            assert losses[2] == 1.0

    def test_loss_frequencies_match_means(self):
        horizon = 4000
        spec = spec_for("stochastic_gap", mu_star=0.1, delta=0.2, num_arms=3,
                        horizon=horizon, seed=11)
        totals = np.zeros(3)
        for t in range(1, horizon + 1):
            totals += generate(spec, t).losses
        means = np.array([0.1, 0.3, 0.5])
        window = 3.0 * np.sqrt(horizon * means * (1.0 - means))
        assert np.all(np.abs(totals - horizon * means) <= window)

    def test_means_cap_at_one(self):
        spec = spec_for("stochastic_gap", mu_star=0.9, delta=0.3, num_arms=3)
        for t in range(1, 51):
            losses = generate(spec, t).losses
            assert losses[2] == 1.0


class TestAdversarialMinority:
    @pytest.mark.parametrize("num_arms,num_experts", [(5, 8), (2, 4), (3, 3), (4, 4),
                                                      (7, 2), (5, 1)])
    def test_matches_per_expert_reference(self, num_arms, num_experts):
        # More, as many, and fewer experts than arms: every byte of the
        # round equals the scalar reference's, built expert by expert.
        for seed in range(3):
            spec = spec_for("adversarial_minority", num_arms=num_arms,
                            num_experts=num_experts, horizon=154, seed=seed)
            for t in range(1, 155):
                data = generate(spec, t)
                advices, losses = adversarial_minority_round(spec, t)
                np.testing.assert_array_equal(data.advices, advices, strict=True)
                np.testing.assert_array_equal(data.losses, losses, strict=True)

    def test_advice_masses_sit_on_replay_lattice(self):
        # Every mass is bitwise the canonical double for some integer
        # multiple of 1/(2T), the same lattice the threshold grid uses.
        spec = spec_for("adversarial_minority", num_arms=4, num_experts=3,
                        horizon=100)
        lattice = 2 * spec.horizon
        for t in range(1, 101):
            data = generate(spec, t)
            counts = np.round(data.advices * lattice)
            np.testing.assert_array_equal(data.advices, counts / lattice)
            assert np.all(counts.sum(axis=1) == lattice)
            for row in data.advices:
                assert ref.validate(row, tol=1e-12)

    def test_good_arm_rotates_by_block(self):
        # Other arms may draw a zero by luck, but the scheduled arm is
        # always free inside its block.
        spec = spec_for("adversarial_minority", num_arms=3, horizon=100)
        block = 10
        for t in range(1, 101):
            good_arm = ((t - 1) // block) % 3
            assert generate(spec, t).losses[good_arm] == 0.0

    def test_losses_are_binary(self):
        spec = spec_for("adversarial_minority")
        for t in range(1, 51):
            losses = generate(spec, t).losses
            assert set(np.unique(losses)) <= {0.0, 1.0}


SEEDS = [0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 100 + 7]
CHUNK = env_mod._CHUNK
GENERATED = sorted(ROUNDS)


def key_words(key):
    """The 32-bit words SeedSequence hashes for an integer key: each integer
    little-endian, at least one word, and the whole zero-padded to its pool
    of four."""
    words = []
    for n in key:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return tuple(words + [0] * (4 - len(words)))


def chunks_held():
    """How many chunks ``generate`` holds: its one entry, once filled."""
    return int(env_mod._held[0] is not None)


class TestRoundStreams:
    """Each chunk of 1024 rounds is drawn from ``default_rng([seed, 2**41, chunk])``."""

    horizon = 3 * CHUNK + 5

    def rounds(self, seed):
        picks = np.random.default_rng(seed % 1000).integers(1, self.horizon + 1, size=4)
        return [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, self.horizon] + picks.tolist()

    def assert_rounds_match(self, spec, rounds):
        for t in rounds:
            data = generate(spec, t)
            advices, losses = ROUNDS[spec.kind](spec, t)
            np.testing.assert_array_equal(data.advices, advices, strict=True)
            np.testing.assert_array_equal(data.losses, losses, strict=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generator_state_matches_default_rng(self, seed):
        # Over seeds of one to four 32-bit words, every kind's rounds equal
        # the scalar reference's, which seeds default_rng([seed, 2**41, chunk]).
        for kind in GENERATED:
            spec = spec_for(kind, num_arms=5, num_experts=8, horizon=self.horizon, seed=seed)
            self.assert_rounds_match(spec, self.rounds(seed))

    @pytest.mark.parametrize("seed,first", [(0, 0), (2 ** 32 - 1, CHUNK),
                                            (2 ** 100 + 7, 5 * CHUNK), (9, 2 ** 32)])
    def test_chunk_rows_match_seed_sequence(self, seed, first):
        # The rows of the chunk that starts after round ``first``, the last
        # chunk of the run; the last case is chunk 2**22.
        for kind in GENERATED:
            spec = spec_for(kind, horizon=first + CHUNK, seed=seed)
            self.assert_rounds_match(spec, [first + row + 1
                                            for row in (0, 1, CHUNK // 2, CHUNK - 1)])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_keys_never_flatten_to_a_sample_key(self, seed):
        # [seed, 2**40] and [seed, 0, 256] are one stream: keys are equal
        # when their words are, so comparing draws would not be enough.
        sample_keys = {key_words([other, SAMPLE_STREAM_SALT]) for other in SEEDS}
        chunk_keys = {key_words([seed, env_mod._CHUNK_SALT, chunk]) for chunk in range(301)}
        assert len(chunk_keys) == 301
        assert not chunk_keys & sample_keys
        assert key_words([seed, SAMPLE_STREAM_SALT]) in sample_keys

    @pytest.mark.parametrize("key,alias", [([5, 2 ** 40], [5, 0, 256]), ([5], [5, 0, 0]),
                                           ([2 ** 64 + 3, 2 ** 41, 7], [3, 0, 1, 0, 512, 7])])
    def test_key_words_name_the_stream(self, key, alias):
        # key_words is SeedSequence's view of a key: aliases share one
        # stream, and a key past the pool's four words is not padded.
        assert key_words(key) == key_words(alias)
        assert (np.random.default_rng(key).bit_generator.state
                == np.random.default_rng(alias).bit_generator.state)
        longer = alias + [1]
        assert key_words(longer) != key_words(key)
        assert (np.random.default_rng(longer).bit_generator.state
                != np.random.default_rng(key).bit_generator.state)

    @pytest.mark.parametrize("kind", GENERATED)
    @pytest.mark.parametrize("num_arms,num_experts", [(2, 4), (5, 8), (3, 3), (7, 2)])
    def test_rounds_equal_reference_bodies(self, kind, num_arms, num_experts):
        for seed in (0, 2 ** 64 + 3):
            spec = spec_for(kind, num_arms=num_arms, num_experts=num_experts,
                            horizon=self.horizon, seed=seed, mu_star=0.16)
            self.assert_rounds_match(spec, self.rounds(seed))

    @pytest.mark.parametrize("kind", ["zero_loss_expert", "stochastic_gap"])
    def test_rounds_do_not_depend_on_the_horizon(self, kind):
        # A chunk is always drawn whole, so a shorter run plays the first
        # rounds of a longer one.
        short, long = (spec_for(kind, horizon=horizon) for horizon in (CHUNK + 3, 5 * CHUNK))
        for t in (1, CHUNK, CHUNK + 1, CHUNK + 3):
            short_data, long_data = generate(short, t), generate(long, t)
            np.testing.assert_array_equal(short_data.advices, long_data.advices)
            np.testing.assert_array_equal(short_data.losses, long_data.losses)

    def test_random_order_over_more_keys_than_cache(self):
        seeds = range(6)
        specs = {seed: spec_for("adversarial_minority", num_arms=5, num_experts=8,
                                horizon=self.horizon, seed=seed) for seed in seeds}
        rng = np.random.default_rng(5)
        pairs = [(seed, int(t)) for seed in seeds
                 for t in rng.integers(1, self.horizon + 1, size=12)]
        held = 1    # generate holds one chunk
        assert len({(seed, (t - 1) // CHUNK) for seed, t in pairs}) > held
        in_order = {pair: generate(specs[pair[0]], pair[1]) for pair in sorted(pairs)}
        for _ in range(2):
            for i in rng.permutation(len(pairs)):
                seed, t = pairs[i]
                data = generate(specs[seed], t)
                np.testing.assert_array_equal(data.advices, in_order[seed, t].advices,
                                              strict=True)
                np.testing.assert_array_equal(data.losses, in_order[seed, t].losses,
                                              strict=True)
                advices, losses = adversarial_minority_round(specs[seed], t)
                np.testing.assert_array_equal(data.advices, advices, strict=True)
                np.testing.assert_array_equal(data.losses, losses, strict=True)
        assert chunks_held() <= held

    def test_held_chunk_is_never_stale(self):
        # The held chunk is matched by spec identity and chunk index: across
        # a chunk boundary, for a replaced spec with another seed, and for an
        # equal spec made anew, every round is its reference round.
        for kind in GENERATED:
            spec = spec_for(kind, horizon=self.horizon, seed=3)
            other = dataclasses.replace(spec, seed=4)
            equal = dataclasses.replace(spec)
            assert equal == spec and equal is not spec
            for current, t in [(spec, CHUNK), (spec, CHUNK + 1), (spec, CHUNK),
                               (other, CHUNK), (spec, CHUNK), (other, CHUNK + 1),
                               (equal, CHUNK + 1), (spec, 1), (equal, 1)]:
                data = generate(current, t)
                assert env_mod._held[0] is current
                advices, losses = ROUNDS[kind](current, t)
                np.testing.assert_array_equal(data.advices, advices, strict=True)
                np.testing.assert_array_equal(data.losses, losses, strict=True)

    def test_rounds_never_share_arrays(self):
        # Two rounds of one chunk and one round twice: every array is its
        # own writable buffer, and writing to it changes no other round.
        for kind in GENERATED:
            spec = spec_for(kind)
            rounds = [generate(spec, 4), generate(spec, 5), generate(spec, 4)]
            arrays = [array for data in rounds for array in (data.advices, data.losses)]
            for i, array in enumerate(arrays):
                assert array.flags.writeable and array.flags.owndata
                assert not any(np.shares_memory(array, other) for other in arrays[i + 1:])
            for data in rounds:
                data.advices[:] = -1.0
                data.losses[:] = -1.0
            for t in (4, 5):
                advices, losses = ROUNDS[kind](spec, t)
                again = generate(spec, t)
                np.testing.assert_array_equal(again.advices, advices)
                np.testing.assert_array_equal(again.losses, losses)

    def test_run_bytes_equal_across_fresh_processes(self):
        # Two interpreters with different hash seeds, visiting rounds in
        # different orders, write the same bytes for every round.
        script = (
            "import sys\n"
            "from myga.environments import EnvSpec, generate\n"
            "order = range(1, 1031) if sys.argv[1] == '0' else range(1030, 0, -1)\n"
            "out = {}\n"
            "for kind in ('zero_loss_expert', 'stochastic_gap', 'adversarial_minority'):\n"
            "    spec = EnvSpec(kind=kind, num_arms=5, num_experts=8, horizon=1030,\n"
            "                   seed=2 ** 64 + 3)\n"
            "    for t in order:\n"
            "        data = generate(spec, t)\n"
            "        out[kind, t] = data.advices.tobytes() + data.losses.tobytes()\n"
            "sys.stdout.buffer.write(b''.join(out[key] for key in sorted(out)))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        payloads = []
        for direction, hash_seed in (("0", "1"), ("1", "2")):
            proc = subprocess.run([sys.executable, "-c", script, direction], capture_output=True,
                                  env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
            assert proc.returncode == 0, proc.stderr.decode()
            payloads.append(proc.stdout)
        assert len(payloads[0]) == 3 * 1030 * (5 * 8 + 5) * 8
        assert payloads[0] == payloads[1]


class TestReplayRoundTrip:
    def _make_rounds(self, rng, num_rounds=5, num_experts=3, num_arms=4):
        rounds = []
        for _ in range(num_rounds):
            rounds.append(RoundData(
                advices=rng.dirichlet(np.ones(num_arms), size=num_experts),
                losses=rng.uniform(0.0, 1.0, size=num_arms)))
        return rounds

    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(91)
        rounds = self._make_rounds(rng)
        path = str(tmp_path / "replay.txt")
        save_replay(path, rounds)
        loaded = load_replay(path)
        np.testing.assert_array_equal(loaded.advices, [r.advices for r in rounds])
        np.testing.assert_array_equal(loaded.losses, [r.losses for r in rounds])

    def test_generate_serves_replay_rounds(self, tmp_path):
        rng = np.random.default_rng(93)
        rounds = self._make_rounds(rng, num_rounds=4)
        path = str(tmp_path / "replay.txt")
        save_replay(path, rounds)
        spec = EnvSpec(kind="replay", num_arms=4, num_experts=3, horizon=4,
                       seed=0, replay=open_replay(path))
        for t in range(1, 5):
            data = generate(spec, t)
            np.testing.assert_array_equal(data.losses, rounds[t - 1].losses)

    def test_replay_shorter_than_horizon(self, tmp_path):
        rng = np.random.default_rng(95)
        path = str(tmp_path / "short.txt")
        save_replay(path, self._make_rounds(rng, num_rounds=2))
        with pytest.raises(ValueError, match="replay holds 2 rounds, horizon is 9"):
            EnvSpec(kind="replay", num_arms=4, num_experts=3, horizon=9,
                    seed=0, replay=open_replay(path))

    def test_uses_lf_line_endings(self, tmp_path):
        rng = np.random.default_rng(97)
        path = str(tmp_path / "replay.txt")
        save_replay(path, self._make_rounds(rng, num_rounds=1))
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rejects_empty_rounds(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_replay(str(tmp_path / "x.txt"), [])

    def test_inconsistent_shapes_write_nothing(self, tmp_path):
        rng = np.random.default_rng(98)
        rounds = self._make_rounds(rng, num_rounds=3)
        rounds[2] = RoundData(advices=rounds[2].advices[:, :3], losses=rounds[2].losses[:3])
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match="inconsistent round shapes"):
            save_replay(str(path), rounds)
        assert not path.exists()

    def test_bytes_equal_joined_writer(self, tmp_path):
        rng = np.random.default_rng(99)
        rounds = awkward_rounds(rng, num_rounds=30, num_experts=3, num_arms=4)
        save_replay(str(tmp_path / "lines.txt"), rounds)
        joined_save_replay(str(tmp_path / "joined.txt"), rounds)
        assert (tmp_path / "lines.txt").read_bytes() == (tmp_path / "joined.txt").read_bytes()

    def test_loaded_replay_is_read_only_arrays(self, tmp_path):
        rng = np.random.default_rng(100)
        rounds = self._make_rounds(rng, num_rounds=3)
        path = str(tmp_path / "replay.txt")
        save_replay(path, rounds)
        loaded = load_replay(path)
        assert isinstance(loaded, Replay)
        assert loaded.losses.shape == (3, 4) and loaded.advices.shape == (3, 3, 4)
        assert not loaded.losses.flags.writeable and not loaded.advices.flags.writeable
        np.testing.assert_array_equal(loaded.advices[1], rounds[1].advices)
        spec = EnvSpec(kind="replay", num_arms=4, num_experts=3, horizon=3,
                       seed=0, replay=loaded)
        data = generate(spec, 2)
        assert data.advices.flags.writeable and data.losses.flags.writeable
        data.advices[:] = -1.0
        np.testing.assert_array_equal(generate(spec, 2).advices, rounds[1].advices)


class TestReplayMalformed:
    def _write(self, tmp_path, text):
        path = str(tmp_path / "bad.txt")
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return path

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "2 1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_replay(path)

    def test_non_integer_header(self, tmp_path):
        path = self._write(tmp_path, "2 one 1\n0.5 0.5\n1.0 0.0\n")
        with pytest.raises(ValueError, match="line 1.*non-integer"):
            load_replay(path)

    def test_truncated_file_points_at_missing_line(self, tmp_path):
        path = self._write(tmp_path, "2 2 2\n0.5 0.5\n1.0 0.0\n0.0 1.0\n0.1 0.2\n")
        with pytest.raises(ValueError, match="line 6.*round 2"):
            load_replay(path)

    def test_trailing_content(self, tmp_path):
        path = self._write(tmp_path,
                           "2 1 1\n0.5 0.5\n1.0 0.0\n0.3 0.7\n")
        with pytest.raises(ValueError, match="line 4.*trailing"):
            load_replay(path)

    def test_wrong_value_count(self, tmp_path):
        path = self._write(tmp_path, "2 1 1\n0.5 0.5 0.5\n1.0 0.0\n")
        with pytest.raises(ValueError, match="line 2.*3 values"):
            load_replay(path)

    def test_non_numeric_loss(self, tmp_path):
        path = self._write(tmp_path, "2 1 1\n0.5 oops\n1.0 0.0\n")
        with pytest.raises(ValueError, match="line 2.*non-numeric"):
            load_replay(path)

    def test_loss_out_of_range(self, tmp_path):
        path = self._write(tmp_path, "2 1 1\n0.5 1.5\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"line 2.*\[0, 1\]"):
            load_replay(path)

    def test_advice_not_distribution(self, tmp_path):
        path = self._write(tmp_path, "2 1 1\n0.5 0.5\n0.9 0.3\n")
        with pytest.raises(ValueError, match="line 3.*not a distribution"):
            load_replay(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="line 1.*empty"):
            load_replay(path)

    def test_nan_loss(self, tmp_path):
        path = self._write(tmp_path, "2 1 2\n0.5 0.5\n1.0 0.0\n0.5 nan\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"line 4: losses outside \[0, 1\]"):
            load_replay(path)


def awkward_rounds(rng, num_rounds, num_experts, num_arms):
    """Random rounds with -0.0, subnormals, 1.0 and 17-digit values among the entries."""
    specials = np.array([-0.0, 5e-324, 2.5e-310, 0.0, 1.0, 0.1 + 0.2])
    point_mass = np.zeros(num_arms)
    point_mass[:3] = [1.0, 5e-324, -0.0][:num_arms]
    rounds = []
    for _ in range(num_rounds):
        losses = rng.uniform(size=num_arms)
        losses[rng.integers(num_arms)] = rng.choice(specials)
        advices = rng.dirichlet(np.ones(num_arms), size=num_experts)
        advices[rng.integers(num_experts)] = rng.permutation(point_mass)
        rounds.append(RoundData(advices=advices, losses=losses))
    return rounds


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def lines_parse(raw: bytes) -> Replay:
    return env_mod._parse_lines(raw.decode(locale.getpreferredencoding(False)))


# (file text, the line parser's message), one malformed file each.
MALFORMED = [
    # The cases of TestReplayMalformed.
    ("2 1\n", "line 1: header must be 'num_arms num_experts num_rounds'"),
    ("2 one 1\n0.5 0.5\n1.0 0.0\n", "line 1: header holds a non-integer value"),
    ("2 2 2\n0.5 0.5\n1.0 0.0\n0.0 1.0\n0.1 0.2\n", "line 6: file truncated inside round 2"),
    ("2 1 1\n0.5 0.5\n1.0 0.0\n0.3 0.7\n", "line 4: trailing content after final round"),
    ("2 1 1\n0.5 0.5 0.5\n1.0 0.0\n", "line 2: round 1 losses has 3 values, expected 2"),
    ("2 1 1\n0.5 oops\n1.0 0.0\n", "line 2: round 1 losses holds a non-numeric value"),
    ("2 1 1\n0.5 1.5\n1.0 0.0\n", "line 2: losses outside [0, 1]"),
    ("2 1 1\n0.5 0.5\n0.9 0.3\n", "line 3: advice row is not a distribution"),
    ("", "line 1: empty replay file"),
    # Lines np.loadtxt skips or reads in its own way.
    ("2 1 2\n0.5 0.5\n1.0 0.0\n\n0.0 1.0\n", "line 4: round 2 losses has 0 values, expected 2"),
    ("2 1 2\n0.5 0.5\n1.0 0.0\n \t \n0.0 1.0\n",
     "line 4: round 2 losses has 0 values, expected 2"),
    ("2 1 2\n0.5 0.5\n1.0 0.0\n#0.5 0.5\n0.0 1.0\n",
     "line 4: round 2 losses holds a non-numeric value"),
    ("2 1 1\n0.5 0.5\n\n1.0 0.0\n", "line 4: trailing content after final round"),
    ("2 1 1\n0.5 0.5\n1.0 0.0\n\n", "line 4: trailing content after final round"),
    ("2 1 1\n\n\n", "line 2: round 1 losses has 0 values, expected 2"),
    # A lone \r, which loadtxt rejects today; were it to break the line in
    # two, the blank line below would hide the extra row.
    ("2 1 2\n0.5 0.5\n1.0 0.0\r0.5 0.5\n\n0.0 1.0\n",
     "line 3: round 1 advice 1 has 4 values, expected 2"),
    # Values outside the rules.
    ("2 1 2\n0.5 0.5\n1.0 0.0\n0.5 nan\n1.0 0.0\n", "line 4: losses outside [0, 1]"),
    ("2 2 1\n0.5 0.5\n1.0 0.0\ninf 0.0\n", "line 4: advice row is not a distribution"),
    ("2 1 1\n0.5 0.5\n0.5 0.500000002\n", "line 3: advice row is not a distribution"),
    # Two bad lines: the first is named.
    ("2 1 2\n0.5 0.5\n0.9 0.3\n0.5 1.5\n1.0 0.0\n", "line 3: advice row is not a distribution"),
]

# (file text, losses, advices) of well-formed files in other spellings.
SPELLINGS = [
    ("2 1 2\r\n0.5 0.5\r\n1.0 0.0\r\n0.25 0.75\r\n0.0 1.0\r\n",
     [[0.5, 0.5], [0.25, 0.75]], [[[1.0, 0.0]], [[0.0, 1.0]]]),
    ("2 1 2\n0.5\t0.5\n\t1.0 0.0\n0.25\t0.75\n0.0\t1.0",
     [[0.5, 0.5], [0.25, 0.75]], [[[1.0, 0.0]], [[0.0, 1.0]]]),
    ("2 1 1\n0.5\r0.5\n1.0 0.0\n", [[0.5, 0.5]], [[[1.0, 0.0]]]),
    ("2 1 1\n0_0.5 0.5\n1_0e-1 0.0\n", [[0.5, 0.5]], [[[1.0, 0.0]]]),
    ("2 1 1\n\u0660.\u0665 0.5\n\u0661 \uff10\n", [[0.5, 0.5]], [[[1.0, 0.0]]]),
]


class TestReplayParsers:
    """The vectorised parse against the line parser."""

    def _write(self, tmp_path, text):
        try:
            raw = text.encode(locale.getpreferredencoding(False))
        except UnicodeEncodeError:
            pytest.skip("the locale's encoding cannot write this file")
        path = tmp_path / "replay.txt"
        path.write_bytes(raw)
        return str(path), raw

    @pytest.mark.parametrize("seed", range(6))
    def test_random_files_parse_to_equal_bits(self, tmp_path, seed):
        rng = np.random.default_rng([51, seed])
        num_arms, num_experts = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        rounds = awkward_rounds(rng, int(rng.integers(1, 60)), num_experts, num_arms)
        path = str(tmp_path / "replay.txt")
        save_replay(path, rounds)
        raw = open(path, "rb").read()
        columns = env_mod._parse_columns(raw)
        assert columns is not None
        lines = lines_parse(raw)
        for replay in (columns, lines, load_replay(path)):
            assert_bits_equal(replay.losses, np.array([r.losses for r in rounds]))
            assert_bits_equal(replay.advices, np.array([r.advices for r in rounds]))

    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_malformed_files_name_the_same_line(self, tmp_path, text, message):
        path, raw = self._write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert env_mod._parse_columns(raw) is None
        assert caught == []
        with pytest.raises(ValueError) as lines_error:
            lines_parse(raw)
        with pytest.raises(ValueError) as load_error:
            load_replay(path)
        assert str(lines_error.value) == str(load_error.value) == message

    @pytest.mark.parametrize("text,losses,advices", SPELLINGS)
    def test_other_spellings_load_the_same_values(self, tmp_path, text, losses, advices):
        path, raw = self._write(tmp_path, text)
        expected = Replay(losses=np.array(losses), advices=np.array(advices))
        columns = env_mod._parse_columns(raw)
        for replay in (lines_parse(raw), load_replay(path)) + ((columns,) if columns else ()):
            assert_bits_equal(replay.losses, expected.losses)
            assert_bits_equal(replay.advices, expected.advices)

    def test_bytes_outside_ascii_take_the_line_parser(self, tmp_path):
        # loadtxt reads a byte stream as Latin-1, where 0xA0 separates values.
        # In an encoding that cannot decode it, the byte's line is named.
        raw = b"2 1 1\n0.5\xa00.5\n1.0 0.0\n"
        assert env_mod._parse_columns(raw) is None
        path = tmp_path / "replay.txt"
        path.write_bytes(raw)
        try:
            expected = lines_parse(raw)
        except UnicodeDecodeError:
            with pytest.raises(ValueError, match=r"^line 2: byte 0xa0 is not valid "):
                load_replay(str(path))
        else:
            assert_bits_equal(load_replay(str(path)).losses, expected.losses)

    def test_crlf_and_tabs_take_the_vectorised_parse(self):
        for text, _, _ in SPELLINGS[:2]:
            assert env_mod._parse_columns(text.encode()) is not None


def replay_with_header(header):
    """A loader of a replay file that holds only ``header``."""
    def load(tmp_path):
        path = tmp_path / "replay.txt"
        path.write_text(header + "\n")
        return load_replay(str(path))
    return load


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda tmp_path: spec_for("zero_loss_expert", num_experts=0),
                 "need at least 1 expert", id="spec-experts"),
    pytest.param(lambda tmp_path: spec_for("stochastic_gap", horizon=0),
                 "need at least 1 round", id="spec-horizon"),
    pytest.param(replay_with_header("1 2 3"), "line 1: header values out of range",
                 id="header-arms"),
    pytest.param(replay_with_header("2 0 3"), "line 1: header values out of range",
                 id="header-experts"),
    pytest.param(replay_with_header("2 2 0"), "line 1: header values out of range",
                 id="header-rounds"),
])
def test_out_of_range_values_are_named(tmp_path, build, message):
    with pytest.raises(ValueError) as raised:
        build(tmp_path)
    assert str(raised.value) == message
