import copy
import math

import numpy as np
import pytest

import numpy_reference as ref
from fixed_point_reference import two_arm_fixed_point
from grid_reference import DensePolicy, block_losses, densify, round_weights
from helper_reference import prefix
from myga.baselines import Exp4Config, Exp4Policy
from myga.cli import ExperimentConfig, execute
from myga.environments import EnvSpec, generate
from myga.fixed_point import MixtureWeights, mixture_residual
from myga.policy import (MygaConfig, MygaPolicy, WeightState, build_threshold_grid,
                         loss_estimate, schedule_parameters, threshold_advice_at)
from myga.simplex import cumulative, sample_index, validate
from myga.truncation import StepFunction, truncate
from round_protocol import RoundProtocolContract, bits, play_bits


class TestScheduleParameters:
    def test_large_run_values(self):
        eta, gamma = schedule_parameters(4, 16, 10000, 10000)
        assert eta == pytest.approx(0.017308183826022852, rel=1e-14)
        assert gamma == 0.03465

    def test_small_run_clamps_both(self):
        eta, gamma = schedule_parameters(2, 2, 100, 10)
        assert eta == 0.5
        assert gamma == 0.5

    def test_zero_loss_budget_acts_like_one(self):
        assert schedule_parameters(2, 4, 10000, 0.0) == schedule_parameters(2, 4, 10000, 1.0)

    def test_overflowing_loss_budget_keeps_eta_positive(self):
        # K * l_star overflows to inf, so the rate is divided in turn.
        eta, gamma = schedule_parameters(2, 4, 5, 1e308, grid_denominator=10)
        assert eta == math.sqrt(math.log(20) / 2 / 1e308) and eta > 0.0
        assert gamma == 0.1

    def test_eta_capped_by_arm_count(self):
        eta, _ = schedule_parameters(8, 2, 10, 1)
        assert eta == 1.0 / 8.0

    def test_gamma_on_lattice_and_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            num_arms = int(rng.integers(2, 12))
            num_experts = int(rng.integers(1, 12))
            horizon = int(rng.integers(2, 10000))
            l_star = float(rng.uniform(0.0, horizon))
            eta, gamma = schedule_parameters(num_arms, num_experts, horizon, l_star)
            denom = 2 * horizon
            j = round(gamma * denom)
            assert abs(gamma - j / denom) <= 1e-15
            assert 0.0 < gamma <= 0.5
            assert 0.0 < eta <= 1.0 / num_arms

    def test_explicit_denominator(self):
        _, gamma = schedule_parameters(4, 16, 10000, 10000, grid_denominator=20000)
        assert gamma == 0.03465

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="arms"):
            schedule_parameters(1, 2, 10, 1)
        with pytest.raises(ValueError, match="single expert-round"):
            schedule_parameters(2, 1, 1, 1)
        with pytest.raises(ValueError, match="non-negative"):
            schedule_parameters(2, 2, 10, -1.0)
        with pytest.raises(ValueError, match="denominator"):
            schedule_parameters(2, 2, 10, 1, grid_denominator=1)


class TestBuildThresholdGrid:
    def test_basic_window(self):
        np.testing.assert_allclose(build_threshold_grid(0.4, 20), [0.45, 0.5])

    def test_gamma_at_half_gives_empty_grid(self):
        assert build_threshold_grid(0.5, 20).size == 0

    def test_small_denominator(self):
        np.testing.assert_allclose(build_threshold_grid(0.25, 4), [0.5])

    def test_odd_denominator_stops_below_half(self):
        np.testing.assert_allclose(build_threshold_grid(0.2, 5), [0.4])

    def test_grid_is_lattice_and_half_open(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            denom = int(rng.integers(2, 5000))
            j = int(rng.integers(1, denom // 2 + 1))
            gamma = j / denom
            grid = build_threshold_grid(gamma, denom)
            assert np.all(grid > gamma)
            assert grid.size == 0 or grid[-1] <= 0.5
            np.testing.assert_allclose(grid * denom, np.round(grid * denom), atol=1e-9)
            assert grid.size == denom // 2 - j

    def test_rejects_off_lattice_gamma(self):
        with pytest.raises(ValueError, match="lattice|multiple"):
            build_threshold_grid(0.21, 10)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            build_threshold_grid(0.0, 10)
        with pytest.raises(ValueError, match="gamma"):
            build_threshold_grid(0.6, 10)


def estimate_vector(p, arm, observed_loss):
    """The estimate as a vector: ``loss_estimate`` at the played arm, zero elsewhere."""
    est = np.zeros(len(p))
    est[arm] = loss_estimate(p, arm, observed_loss)
    return est


class TestLossEstimator:
    def test_point_mass_at_played_arm(self):
        est = estimate_vector(np.array([0.5, 0.5]), 1, 0.8)
        np.testing.assert_allclose(est, [0.0, 1.6], atol=1e-15)

    def test_zero_loss_gives_zero_vector(self):
        est = estimate_vector(np.array([0.25, 0.75]), 0, 0.0)
        np.testing.assert_array_equal(est, [0.0, 0.0])

    def test_unbiased_over_support(self):
        # Averaging the estimate over the play distribution recovers the
        # loss on every arm the policy can actually reach.
        rng = np.random.default_rng(33)
        for _ in range(100):
            num_arms = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(num_arms))
            p[rng.random(num_arms) < 0.3] = 0.0
            if p.sum() == 0.0:
                continue
            p = p / p.sum()
            losses = rng.uniform(0.0, 1.0, size=num_arms)
            mean = np.zeros(num_arms)
            for a in range(num_arms):
                if p[a] > 0.0:
                    mean += p[a] * estimate_vector(p, a, float(losses[a]))
            np.testing.assert_allclose(mean, np.where(p > 0.0, losses, 0.0), atol=1e-12)

    def test_zero_probability_arm_is_an_error(self):
        with pytest.raises(RuntimeError, match="zero probability"):
            loss_estimate(np.array([1.0, 0.0]), 1, 0.5)

    def test_range_checks(self):
        with pytest.raises(ValueError, match="arm"):
            loss_estimate(np.array([0.5, 0.5]), 2, 0.5)
        with pytest.raises(ValueError, match="loss"):
            loss_estimate(np.array([0.5, 0.5]), 0, 1.5)


def shares_of(policy):
    """The base share and every prefix's kept share of a policy's weights."""
    shares = round_weights(policy)[1]
    return shares.base, np.array([shares.split(n)[0] for n in range(shares.size + 1)])


def policy_with(num_experts, num_thresholds, eta):
    """A policy over ``num_thresholds`` thresholds: (1/4, 1/2] on the 1/(4G) lattice."""
    if not num_thresholds:
        return make_policy(num_experts=num_experts, eta=eta, gamma=0.5, grid_denominator=4)
    return make_policy(num_experts=num_experts, eta=eta, gamma=0.25,
                       grid_denominator=4 * num_thresholds)


class TestWeightState:
    def test_initial_weights_are_one(self):
        policy = policy_with(3, 2, 0.5)
        w_real, aux = round_weights(policy)
        np.testing.assert_array_equal(w_real, [1.0, 1.0, 1.0])
        assert [prefix(aux, n) for n in range(3)] == [0.0, 1.0, 2.0]
        assert aux.total == 2.0

    def test_best_expert_pins_weight_one(self):
        policy = policy_with(3, 0, 0.7)
        policy.real_loss[...] += np.array([2.0, 5.0, 3.5])
        w_real, aux = round_weights(policy)
        assert w_real[0] == 1.0
        assert np.all(w_real <= 1.0)
        assert aux.total == 0.0

    def test_best_auxiliary_expert_pins_weight_one(self):
        policy = policy_with(2, 5, 0.7)
        policy.real_loss[...] += np.array([2.0, 5.0])
        policy.state.charge(StepFunction([0, 2, 3], [4.0, 1.0, 3.0]))
        w_real, aux = round_weights(policy)
        assert prefix(aux, 3) - prefix(aux, 2) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(w_real, np.exp(-0.7 * np.array([1.0, 4.0])), rtol=1e-15)

    def test_common_shift_leaves_shares_unchanged(self):
        policy = policy_with(4, 3, 0.3)
        rng = np.random.default_rng(41)
        policy.real_loss[...] += rng.uniform(0.0, 20.0, size=4)
        policy.state.charge(StepFunction([0, 1, 2], rng.uniform(0.0, 20.0, size=3).tolist()))
        base, kept = shares_of(policy)
        policy.real_loss[...] += 1000.0
        policy.state.charge(StepFunction([0], [1000.0]))
        base2, kept2 = shares_of(policy)
        assert base2 == pytest.approx(base, rel=1e-12)
        np.testing.assert_allclose(kept2, kept, rtol=1e-12)

    def test_hopeless_expert_keeps_positive_weight(self):
        # The hopeless real expert keeps its floored weight.  The hopeless
        # auxiliary expert's weight underflows to 0 unfloored, and the
        # round is the dense reference's, whose floored share is 1e-300.
        config = MygaConfig(num_arms=2, num_experts=2, horizon=1, eta=1.0, gamma=0.25,
                            grid_denominator=8)
        policy, dense = MygaPolicy(config), DensePolicy(config)
        for each in (policy, dense):
            each.real_loss[...] += np.array([0.0, 1e6])
        policy.state.charge(StepFunction([0], [2e6]))
        dense.state.aux_loss += 2e6
        w_real, aux = round_weights(policy)
        assert w_real[1] > 0.0 and np.isfinite(w_real).all()
        assert aux.total == 0.0 and round_weights(dense)[1].w_aux[0] == 1e-300
        advices = np.array([[0.7, 0.3], [0.2, 0.8]])
        _, play = policy.advise(advices)
        _, reference = dense.advise(advices)
        for field in ("q_sorted", "p_sorted"):
            np.testing.assert_array_equal(getattr(play, field), getattr(reference, field))
        assert play.residual <= 1e-9

    def test_hopeless_expert_keeps_positive_weight_under_exp4(self):
        # The floor lives in the rebase both policies share; without a grid
        # the state is the real experts alone, and the round still plays.
        policy = Exp4Policy(Exp4Config(num_arms=2, num_experts=2, eta=1.0))
        policy.real_loss[...] += np.array([0.0, 1e6])
        w_real, aux = round_weights(policy)
        assert w_real[1] > 0.0 and np.isfinite(w_real).all()
        assert aux.total == 0.0
        p, _ = policy.advise(np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert p == [0.7, 0.3]


class TestRebaseSkip:
    def test_rebase_runs_only_after_a_charge(self, monkeypatch):
        # A zero loss charges nobody, so the next round's weights are the
        # last rebase's: the rebase runs in round 1 and in each round after
        # a charged one, and in no other.  The experts' advice repeats, so
        # the play is solved in those rounds alone and reused in the rest.
        eta, gamma = schedule_parameters(2, 4, 2000, 2000.0)
        policy = MygaPolicy(MygaConfig(num_arms=2, num_experts=4, horizon=2000, eta=eta,
                                       gamma=gamma), np.random.default_rng(0))
        spec = EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4, horizon=2000, seed=0,
                       mu_star=0.1, delta=0.2)
        rebased, played, charged, grown = [], [], [], 0
        rebase, solve = WeightState._rebase, MygaPolicy._play

        def count_rebase(state):
            rebased.append(policy.t)
            return rebase(state)

        def count_play(self, advices):
            played.append(self.t)
            return solve(self, advices)

        monkeypatch.setattr(WeightState, "_rebase", count_rebase)
        monkeypatch.setattr(MygaPolicy, "_play", count_play)
        for t in range(1, 2001):
            data = generate(spec, t)
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            loss = float(data.losses[arm])
            policy.update(arm, loss)
            charged += [t] if loss else []
            grown += play.iterations > 0
        assert rebased == played == [1] + [t + 1 for t in charged if t < 2000]
        assert 200 < len(charged) < 1000 and grown >= 30


class TestMygaConfig:
    def test_denominator_defaults_to_twice_horizon(self):
        cfg = MygaConfig(num_arms=2, num_experts=2, horizon=50, eta=0.1, gamma=0.25)
        assert cfg.grid_denominator == 100

    def test_rejects_off_lattice_gamma(self):
        with pytest.raises(ValueError, match="lattice"):
            MygaConfig(num_arms=2, num_experts=2, horizon=50, eta=0.1, gamma=0.2501)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="arms"):
            MygaConfig(num_arms=1, num_experts=2, horizon=10, eta=0.1, gamma=0.5)
        with pytest.raises(ValueError, match="expert"):
            MygaConfig(num_arms=2, num_experts=0, horizon=10, eta=0.1, gamma=0.5)
        with pytest.raises(ValueError, match="eta"):
            MygaConfig(num_arms=2, num_experts=2, horizon=10, eta=0.0, gamma=0.5)

    @pytest.mark.parametrize("denominator", [0, 1, -4])
    def test_rejects_grid_denominator_below_two(self, denominator):
        with pytest.raises(ValueError, match="grid denominator must be at least 2"):
            MygaConfig(num_arms=2, num_experts=1, horizon=1, eta=0.1, gamma=0.25,
                       grid_denominator=denominator)


def make_policy(num_arms=2, num_experts=2, horizon=100, eta=0.5, gamma=0.01,
                grid_denominator=200, seed=0):
    cfg = MygaConfig(num_arms=num_arms, num_experts=num_experts, horizon=horizon,
                     eta=eta, gamma=gamma, grid_denominator=grid_denominator)
    return MygaPolicy(cfg, sample_rng=np.random.default_rng(seed))


class TestMygaPolicyAdvise:
    def test_first_round_mixture_is_plain_average(self):
        policy = make_policy()
        advices = np.array([[1.0, 0.0], [0.4, 0.6]])
        p, play = policy.advise(advices)
        np.testing.assert_allclose(play.zeta_sorted, [0.7, 0.3], atol=1e-15)
        assert play.pivot == 1
        assert validate(p)
        # Minority mass solves the same one-dimensional equation the
        # closed-form oracle enumerates.
        shares = MixtureWeights(base=2.0 / (2.0 + len(play.thresholds)),
                                per_threshold=np.full(len(play.thresholds),
                                                      1.0 / (2.0 + len(play.thresholds))))
        oracle = two_arm_fixed_point(0.3, shares, play.thresholds)
        assert abs(play.q_sorted[1] - oracle) <= 1e-9
        np.testing.assert_allclose(play.p_sorted,
                                   truncate(play.q_sorted, 1, policy.cfg.gamma),
                                   atol=1e-15)

    def test_play_is_gamma_truncation_in_original_coordinates(self):
        rng = np.random.default_rng(55)
        policy = make_policy(num_arms=5, num_experts=3, gamma=0.125,
                             grid_denominator=8)
        advices = rng.dirichlet(np.ones(5), size=3)
        p, play = policy.advise(advices)
        np.testing.assert_array_equal(play.perm.to_original(play.p_sorted), p)
        np.testing.assert_array_equal([p[i] for i in play.perm.forward], play.p_sorted)

    def test_trace_residual_within_contract(self):
        rng = np.random.default_rng(57)
        policy = make_policy(num_arms=6, num_experts=4, gamma=0.05,
                             grid_denominator=40)
        for t in range(20):
            advices = rng.dirichlet(np.ones(6), size=4)
            p, play = policy.advise(advices)
            assert play.residual <= 1e-9
            shares_total = np.sum(play.q_sorted)
            assert abs(shares_total - 1.0) <= 1e-9
            arm = policy.sample(p)
            policy.update(arm, float(rng.uniform()))

    def test_rejects_bad_advice_shape_and_rows(self):
        policy = make_policy()
        with pytest.raises(ValueError, match="does not match"):
            policy.advise(np.ones((3, 2)) / 2)
        with pytest.raises(ValueError, match="expert advice"):
            policy.advise(np.array([[0.9, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="expert advice row 1 "):
            policy.advise(np.array([[0.5, 0.5], [0.9, 0.2]]))


class TestPlacement:
    """``Play.below`` places each solved minority arm on the grid, also on rounds that grow."""

    @pytest.mark.parametrize("config", [
        ExperimentConfig(env="stochastic_gap", num_arms=2, num_experts=4, horizon=1000),
        ExperimentConfig(env="adversarial_minority", num_arms=2, num_experts=4, horizon=2000,
                         gamma=0.4, grid_denominator=4000),
    ], ids=["stochastic_gap", "adversarial_minority"])
    def test_below_is_the_search_of_the_solved_minority(self, monkeypatch, config):
        plays = []
        advise = MygaPolicy.advise

        def capture(policy, advices, **kwargs):
            p, play = advise(policy, advices, **kwargs)
            plays.append(play)
            return p, play

        monkeypatch.setattr(MygaPolicy, "advise", capture)
        execute(config)
        assert sum(play.iterations > 0 for play in plays) >= 30
        for play in plays:
            minority = play.q_sorted[play.pivot:]
            assert play.below == np.searchsorted(play.thresholds, minority, side="left").tolist()
            assert play.iterations == sum(play.below)


class TestMygaPolicyUpdate(RoundProtocolContract):
    @staticmethod
    def make():
        return make_policy()

    @staticmethod
    def starved_round():
        return (make_policy(gamma=0.5, grid_denominator=4),
                np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_auxiliary_charge_matches_literal_truncation(self):
        # The closed-form advice value at the played arm must equal the
        # full truncation evaluated there, on both sides of the pivot, and
        # ``update`` must charge each threshold expert that advice times
        # the loss estimate.
        rng = np.random.default_rng(61)
        policy = make_policy(num_arms=6, num_experts=3, eta=0.3, gamma=0.125,
                             grid_denominator=8, horizon=50)
        aux = policy.state
        seen_minority = seen_majority = 0
        for _ in range(60):
            advices = rng.dirichlet(np.ones(6) * 0.7, size=3)
            p, play = policy.advise(advices)
            support = np.flatnonzero(np.asarray(play.p_original) > 0.0)
            arm = int(rng.choice(support))
            loss = float(rng.uniform())
            before = block_losses(aux)
            policy.update(arm, loss)
            arm_sorted = play.perm.inverse[arm]
            advice = densify(threshold_advice_at(play, arm_sorted), aux.size)
            literal = np.array([truncate(play.q_sorted, play.pivot, float(s))[arm_sorted]
                                for s in play.thresholds])
            np.testing.assert_allclose(advice, literal, atol=1e-12)
            np.testing.assert_allclose(block_losses(aux) - before, advice * (loss / p[arm]),
                                       atol=1e-12)
            if arm_sorted >= play.pivot:
                seen_minority += 1
            else:
                seen_majority += 1
        assert seen_minority > 0 and seen_majority > 0

    def test_real_expert_charges_accumulate(self):
        policy = make_policy()
        advices = np.array([[1.0, 0.0], [0.4, 0.6]])
        p, play = policy.advise(advices)
        arm = int(np.flatnonzero(np.asarray(p) > 0.0)[0])
        before = policy.real_loss.copy()
        policy.update(arm, 0.5)
        est = 0.5 / p[arm]
        np.testing.assert_allclose(policy.real_loss - before, advices[:, arm] * est, atol=1e-12)

    def test_update_shifts_weight_toward_better_expert(self):
        # Arm 0 always loses, arm 1 is free; the expert recommending arm 1
        # must end up with the larger weight.
        policy = make_policy(eta=1.0)
        advices = np.array([[1.0, 0.0], [0.0, 1.0]])
        for _ in range(5):
            p, play = policy.advise(advices)
            arm = policy.sample(p)
            policy.update(arm, 1.0 if arm == 0 else 0.0)
        w_real, _ = round_weights(policy)
        assert w_real[1] > w_real[0]


def sampling_run(shape):
    """A policy and its environment: ``gap_wide_grid``'s cell (K=2, repeats) or the lattice cell."""
    if shape == "gap_wide_grid":
        horizon = 3000
        eta, gamma = schedule_parameters(2, 4, horizon, 480.0)
        config = MygaConfig(num_arms=2, num_experts=4, horizon=horizon, eta=eta, gamma=gamma)
        spec = EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4, horizon=horizon,
                       seed=0, mu_star=0.16, delta=0.2)
    else:
        config = MygaConfig(num_arms=5, num_experts=8, horizon=1500, eta=0.2, gamma=0.4,
                            grid_denominator=4000)
        spec = EnvSpec(kind="adversarial_minority", num_arms=5, num_experts=8,
                       horizon=1500, seed=0)
    return MygaPolicy(config, sample_rng=np.random.default_rng(5)), spec


class TestCachedCdf:
    """``sample`` keeps the last distribution's prefix sums, keyed by the list's identity."""

    @pytest.mark.parametrize("shape", ["gap_wide_grid", "minority_lattice"])
    def test_arms_match_an_uncached_search(self, shape):
        # Every arm is the one ``sample_index`` finds on the same uniform
        # when it builds the prefix sums itself.
        policy, spec = sampling_run(shape)
        uniforms = copy.deepcopy(policy.rng)
        repeats, last = 0, None
        for t in range(1, spec.horizon + 1):
            data = generate(spec, t)
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            assert arm == sample_index(list(p), uniforms.random())
            policy.update(arm, float(data.losses[arm]))
            repeats += p is last
            last = p
        if shape == "gap_wide_grid":
            assert repeats > spec.horizon // 2
        else:
            assert repeats == 0

    def test_deep_copy_mid_streak_samples_on(self):
        # A copy taken inside a streak of repeated plays holds the streak's
        # distribution and prefix sums of its own, and draws every later
        # arm as the original does.
        policy, spec = sampling_run("gap_wide_grid")
        streak, last, t = 0, None, 0
        while streak < 3:
            t += 1
            data = generate(spec, t)
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            policy.update(arm, float(data.losses[arm]))
            streak = streak + 1 if p is last else 0
            last = p
        clone = copy.deepcopy(policy)
        assert clone._drawn == policy._drawn and clone._drawn is not policy._drawn
        assert clone._cdf == policy._cdf and clone._cdf is not policy._cdf
        assert clone._drawn is clone._last_play.p_original
        start = t + 1
        for t in range(start, start + 1500):
            data = generate(spec, t)
            arms = []
            for each in (policy, clone):
                p, play = each.advise(data.advices)
                arm = each.sample(p)
                each.update(arm, float(data.losses[arm]))
                arms.append(arm)
            assert arms[0] == arms[1]

    @pytest.mark.parametrize("shape", ["gap_wide_grid", "minority_lattice"])
    def test_deep_copy_of_a_pending_round_plays_on(self, shape):
        # A copy taken between ``advise`` and ``update`` updates the pending
        # round and then plays every later round bit for bit as the
        # original does: on the K=2 cell inside a streak of repeated plays,
        # on the K=5, E=8 lattice cell where no play repeats.
        policy, spec = sampling_run(shape)
        last = None
        for t in range(1, spec.horizon + 1):
            data = generate(spec, t)
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            if t >= 40 and (shape == "minority_lattice" or p is last):
                break
            policy.update(arm, float(data.losses[arm]))
            last = p
        clone = copy.deepcopy(policy)
        advices, pending = clone._pending
        assert play_bits(pending) == play_bits(play) and pending is not play
        assert bits(advices) == bits(policy._pending[0]) and advices is not policy._pending[0]
        assert (p is last) == (shape == "gap_wide_grid")
        for each in (policy, clone):
            each.update(arm, float(data.losses[arm]))
        for t in range(t + 1, t + 301):
            data = generate(spec, t)
            outcomes = []
            for each in (policy, clone):
                p, play = each.advise(data.advices)
                arm = each.sample(p)
                each.update(arm, float(data.losses[arm]))
                outcomes.append((bits(p), play_bits(play), arm, bits(each.real_loss),
                                 bits(each.state.loss), bits(each.state.block_loss)))
            assert outcomes[0] == outcomes[1]

    def test_nan_distribution_samples_as_before(self):
        # A NaN reads as +inf from its arm on, in a new list and in a kept one.
        assert cumulative([0.3, math.nan, 0.7]) == [0.3, math.inf, math.inf]
        policy = make_policy(num_arms=3)
        uniforms = copy.deepcopy(policy.rng)
        for probs in ([0.3, math.nan, 0.7], [math.nan, 0.5, 0.5], [0.2, 0.0, math.nan]):
            for _ in range(3):   # a new list, then the same list twice
                u = uniforms.random()
                want = ref.sample_index(probs, u)
                assert policy.sample(probs) == sample_index(probs, u) == want


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: MygaConfig(num_arms=2, num_experts=2, horizon=0, eta=0.1, gamma=0.25,
                                    grid_denominator=4),
                 "need at least 1 round", id="config-horizon"),
    pytest.param(lambda: MygaConfig(num_arms=2, num_experts=2, horizon=10, eta=0.1, gamma=0.0),
                 "gamma must lie in (0, 1/2]", id="config-gamma-zero"),
    pytest.param(lambda: MygaConfig(num_arms=2, num_experts=2, horizon=10, eta=0.1, gamma=0.55),
                 "gamma must lie in (0, 1/2]", id="config-gamma-above-half"),
    pytest.param(lambda: build_threshold_grid(0.25, 1),
                 "grid denominator must be at least 2", id="grid-denominator"),
])
def test_out_of_range_values_are_named(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
