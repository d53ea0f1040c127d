import numpy as np
import pytest

from myga.baselines import BaselinePlay, Exp4Config, Exp4Policy, threshold_mixture
import numpy_reference as ref
from round_protocol import RoundProtocolContract


class TestThresholdMixture:
    def test_zeroes_small_arms_and_renormalizes(self):
        out = threshold_mixture(np.array([0.5, 0.3, 0.2]), 0.25)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0], atol=1e-15)

    def test_boundary_mass_is_removed(self):
        out = threshold_mixture(np.array([0.75, 0.25]), 0.25)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)

    def test_identity_when_everything_would_vanish(self):
        p = np.array([0.4, 0.3, 0.3])
        np.testing.assert_array_equal(threshold_mixture(p, 0.5), p)

    def test_nothing_surviving_returns_a_new_array(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        out = threshold_mixture(p, 0.25)
        assert out is not p
        np.testing.assert_array_equal(out, p)

    @pytest.mark.parametrize("num_arms", range(2, 13))
    def test_matches_numpy_form(self, num_arms):
        # Equal bit for bit below eight arms, where NumPy adds from the
        # left too; within rounding above.  Some masses sit exactly at gamma.
        rng = np.random.default_rng(300 + num_arms)
        for _ in range(500):
            p = rng.dirichlet(np.ones(num_arms))
            gamma = float(rng.uniform(0.0, 0.5))
            if rng.random() < 0.3:
                gamma = float(p[rng.integers(num_arms)])
            out, expected = threshold_mixture(p, gamma), ref.threshold_mixture(p, gamma)
            if num_arms < 8:
                np.testing.assert_array_equal(out, expected, strict=True)
            else:
                np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            out = threshold_mixture(p, float(rng.uniform(0.0, 0.5)))
            assert ref.validate(out, tol=1e-12)


class TestExp4Config:
    def test_thresholded_requires_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Exp4Config(num_arms=2, num_experts=2, eta=0.1, variant="thresholded")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            Exp4Config(num_arms=2, num_experts=2, eta=0.1, variant="clipped")

    def test_plain_ignores_gamma(self):
        cfg = Exp4Config(num_arms=2, num_experts=2, eta=0.1)
        assert cfg.gamma == 0.0


class TestExp4Policy(RoundProtocolContract):
    @staticmethod
    def make():
        return Exp4Policy(Exp4Config(num_arms=2, num_experts=2, eta=0.5),
                          sample_rng=np.random.default_rng(0))

    @staticmethod
    def starved_round():
        cfg = Exp4Config(num_arms=2, num_experts=1, eta=0.5,
                         variant="thresholded", gamma=0.3)
        return (Exp4Policy(cfg, sample_rng=np.random.default_rng(0)),
                np.array([[0.8, 0.2]]))

    def test_plain_first_round_is_average(self):
        policy = Exp4Policy(Exp4Config(num_arms=3, num_experts=2, eta=0.5),
                            sample_rng=np.random.default_rng(0))
        advices = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3]])
        p, play = policy.advise(advices)
        np.testing.assert_allclose(p, [0.6, 0.25, 0.15], atol=1e-15)
        assert isinstance(play, BaselinePlay) and p is play.p_original

    def test_thresholded_first_round(self):
        cfg = Exp4Config(num_arms=3, num_experts=2, eta=0.5,
                         variant="thresholded", gamma=0.2)
        policy = Exp4Policy(cfg, sample_rng=np.random.default_rng(0))
        advices = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3]])
        p, _ = policy.advise(advices)
        np.testing.assert_allclose(p, [0.6 / 0.85, 0.25 / 0.85, 0.0], atol=1e-15)

    def test_update_charges_by_advice_at_played_arm(self):
        policy = Exp4Policy(Exp4Config(num_arms=2, num_experts=2, eta=0.5),
                            sample_rng=np.random.default_rng(0))
        advices = np.array([[1.0, 0.0], [0.4, 0.6]])
        p, _ = policy.advise(advices)
        policy.update(0, 0.7)
        est = 0.7 / p[0]
        np.testing.assert_allclose(policy.state.real_loss, [est, 0.4 * est], atol=1e-12)

    def test_weights_track_cumulative_loss(self):
        policy = Exp4Policy(Exp4Config(num_arms=2, num_experts=2, eta=1.0),
                            sample_rng=np.random.default_rng(3))
        advices = np.array([[1.0, 0.0], [0.0, 1.0]])
        for _ in range(10):
            p, _ = policy.advise(advices)
            arm = policy.sample(p)
            policy.update(arm, 1.0 if arm == 0 else 0.0)
        assert policy.state.real_loss[0] > policy.state.real_loss[1]
        p, _ = policy.advise(advices)
        assert p[1] > 0.9

    def test_long_run_stays_normalized(self):
        rng = np.random.default_rng(77)
        cfg = Exp4Config(num_arms=4, num_experts=3, eta=0.2,
                         variant="thresholded", gamma=0.05)
        policy = Exp4Policy(cfg, sample_rng=np.random.default_rng(5))
        for _ in range(200):
            advices = rng.dirichlet(np.ones(4), size=3)
            p, _ = policy.advise(advices)
            assert ref.validate(p, tol=1e-9)
            arm = policy.sample(p)
            policy.update(arm, float(rng.uniform()))


@pytest.mark.parametrize("num_arms, num_experts", [(1, 2), (0, 2), (2, 0)])
def test_out_of_range_counts_are_named(num_arms, num_experts):
    with pytest.raises(ValueError) as raised:
        Exp4Config(num_arms=num_arms, num_experts=num_experts, eta=0.1)
    assert str(raised.value) == "need at least 2 arms and 1 expert"
