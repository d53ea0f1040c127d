"""The block-structured auxiliary weights against their dense references.

``WeightState`` must give every prefix sum and the total of ``exp`` over
a dense cumulative-loss array, and the policy built on it must play the
rounds of the dense policy in ``grid_reference``, both up to rounding.
"""

import numpy as np
import pytest

from grid_reference import DensePolicy, block_losses, dense_threshold_advice, densify
from helper_reference import prefix
from myga.environments import EnvSpec, generate
from myga.policy import (MygaConfig, MygaPolicy, WeightState, schedule_parameters,
                         threshold_advice_at)
from myga.truncation import StepFunction

# Grid sizes: empty, one block (1 and 2: the block width is ceil(sqrt(G))),
# perfect squares and their neighbours, and the gap_wide_grid grid.
SIZES = (0, 1, 2, 3, 5, 15, 16, 17, 99, 100, 101, 7698)


def random_charge(rng, size, scale):
    """A step function over ``size`` indices: random breaks, some zero costs."""
    if size == 0:
        return StepFunction([], [])
    cuts = rng.integers(1, size + 1, size=int(rng.integers(0, 5)))
    breaks = [0] + sorted(set(cuts.tolist()) - {size})
    costs = rng.uniform(0.0, scale, size=len(breaks))
    costs[rng.random(len(breaks)) < 0.3] = 0.0
    return StepFunction(breaks, costs.tolist())


def dense_prefix(loss, eta, lowest):
    """Prefix sums (from 0) of exp(-eta * (loss - shift)), in extended precision, and the shift."""
    shift = min(lowest, float(loss.min())) if loss.size else lowest
    weights = np.exp(-eta * (loss - shift)).astype(np.longdouble)
    return np.concatenate(([0.0], np.cumsum(weights))).astype(float), shift


class TestBlockWeights:
    def test_block_width(self):
        assert [WeightState(size, 0.1, 1).width for size in (0, 1, 2, 3, 4, 5, 9, 10, 7698)] \
            == [1, 1, 2, 2, 2, 3, 3, 4, 88]

    @pytest.mark.parametrize("size", SIZES)
    def test_prefix_sums_match_dense_exp(self, size):
        rng = np.random.default_rng(1000 + size)
        for _ in range(3 if size > 1000 else 10):
            eta = float(rng.uniform(0.01, 1.0))
            charges = int(rng.integers(1, 40))
            scale = 40.0 / (eta * charges)   # eta times any cumulative loss stays below 40
            aux, loss = WeightState(size, eta, 1), np.zeros(size)
            for step in range(charges):
                charge = random_charge(rng, size, scale)
                aux.charge(charge)
                loss += densify(charge, size)
                if size > 1000 and step < charges - 1:
                    continue
                lowest = float(rng.uniform(-5.0, 45.0)) / eta
                want, shift = dense_prefix(loss, eta, lowest)
                aux.real_loss[0] = lowest
                aux.weights()
                # The rebase's shift is the lowest lead, which weighs exactly 1.
                assert aux._weight.max() == 1.0
                assert float(aux.lead.min()) == pytest.approx(shift, rel=1e-14, abs=1e-12)
                got = np.array([prefix(aux, n) for n in range(size + 1)])
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
                assert aux.total == pytest.approx(want[-1], rel=1e-12, abs=0.0)

    def test_charge_on_empty_grid(self):
        aux = WeightState(0, 0.5, 1)
        aux.charge(StepFunction([], []))
        aux.real_loss[0] = 3.0
        aux.weights()
        assert aux.lead.tolist() == [3.0] and aux.real_weights.tolist() == [1.0]
        assert prefix(aux, 0) == 0.0 and aux.total == 0.0

    def test_shares_of_real_total(self):
        aux = WeightState(4, 0.5, 1)
        aux.weights()
        assert aux.base == 0.2
        assert aux.split(1) == (0.2, 0.6)


def gap_run():
    eta, gamma = schedule_parameters(2, 4, 10_000, 1600.0)
    return (MygaConfig(num_arms=2, num_experts=4, eta=eta, gamma=gamma, grid_denominator=20_000),
            EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4, horizon=10_000,
                    seed=7, mu_star=0.16, delta=0.2))


def lattice_run():
    return (MygaConfig(num_arms=5, num_experts=8, eta=0.2, gamma=0.4, grid_denominator=4000),
            EnvSpec(kind="adversarial_minority", num_arms=5, num_experts=8, horizon=2000,
                    seed=3))


def drift(policy, dense, spec, rounds, same_state):
    """Largest gaps between the two policies over ``rounds`` rounds of one trajectory.

    Both play the arm the block policy samples.  With ``same_state`` the
    dense policy is handed the block policy's cumulative losses before each
    round, so the gaps are one round's rounding; without it the two keep
    their own state and the gaps are the whole trajectory's.
    """
    size = len(policy.thresholds)
    worst = dict.fromkeys(("q", "p", "base", "kept", "table", "advice"), 0.0)
    for t in range(1, rounds + 1):
        if same_state:
            dense.state.real_loss[:] = policy.state.real_loss
            dense.state.aux_loss = block_losses(policy.state)
        data = generate(spec, t)
        p, play = policy.advise(data.advices)
        p_dense, reference = dense.advise(data.advices)
        shares = policy.state
        gaps = dict(
            q=np.abs(np.subtract(play.q_sorted, reference.q_sorted)).max(),
            p=np.abs(np.subtract(p, p_dense)).max(),
            base=abs(shares.base - dense.shares.base),
            kept=max(abs(shares.split(n)[0] - dense.shares.split(n)[0])
                     for n in range(0, size + 1, 1 + size // 64)),
            table=np.abs(densify(play.dropped_table, size)
                         - reference.dropped_table).max(initial=0.0))
        arm = policy.sample(p)
        policy.update(arm, float(data.losses[arm]))
        dense.update(arm, float(data.losses[arm]))
        advice = threshold_advice_at(play, play.perm.inverse[arm])
        gaps["advice"] = np.abs(densify(advice, size) - dense_threshold_advice(
            reference, reference.perm.inverse[arm])).max(initial=0.0)
        worst = {key: max(worst[key], float(gaps[key])) for key in worst}
    return worst


class TestDenseReplay:
    @pytest.mark.parametrize("run,rounds", [(gap_run, 150), (lattice_run, 400)])
    def test_one_round_rounding(self, run, rounds):
        config, spec = run()
        worst = drift(MygaPolicy(config, np.random.default_rng(1)), DensePolicy(config),
                      spec, rounds, same_state=True)
        for key in ("q", "p", "base", "table", "advice"):
            assert worst[key] <= 1e-15, (key, worst)
        assert worst["kept"] <= 1e-12, worst

    def test_trajectory_drift(self):
        config, spec = gap_run()
        worst = drift(MygaPolicy(config, np.random.default_rng(1)), DensePolicy(config),
                      spec, 300, same_state=False)
        for key in ("q", "p", "table", "advice"):
            assert worst[key] <= 1e-13, (key, worst)
