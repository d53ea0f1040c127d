import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

import myga.audit as audit_mod
from myga.audit import Auditor, RegretReport, Violation, check_round, theorem_bound_value
from myga.baselines import BaselinePlay, Exp4Config, Exp4Policy
from myga.environments import EnvSpec, generate
from myga.policy import MygaConfig, MygaPolicy, Play, schedule_parameters
from myga.simplex import ArmPermutation
from myga.truncation import StepFunction, truncated_mass_table
from grid_reference import densify


def run_policy(policy, spec, auditor=None, horizon=None):
    horizon = horizon or spec.horizon
    for t in range(1, horizon + 1):
        data = generate(spec, t)
        p, play = policy.advise(data.advices)
        arm = policy.sample(p)
        policy.update(arm, float(data.losses[arm]))
        if auditor is not None:
            auditor.observe_round(t, data.advices, play, data.losses)


class Round(NamedTuple):
    """One round as the auditor observes it: its ``t``, its advice matrix and its play."""

    t: int
    advices: np.ndarray
    play: object


def make_round(zeta_sorted, pivot, q_sorted, p_sorted, thresholds=(),
               advices=None, t=1):
    """Hand-assembled round in identity arm order, its play's arm vectors as lists."""
    zeta_sorted = np.asarray(zeta_sorted, dtype=float)
    q_sorted = np.asarray(q_sorted, dtype=float)
    p_sorted = np.asarray(p_sorted, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    num_arms = zeta_sorted.size
    perm = ArmPermutation(forward=list(range(num_arms)), inverse=list(range(num_arms)))
    if advices is None:
        advices = np.tile(zeta_sorted, (2, 1))
    below = thresholds.searchsorted(q_sorted[pivot:], side="left").tolist()
    play = Play(
        zeta_sorted=zeta_sorted.tolist(),
        perm=perm, pivot=pivot, q_sorted=q_sorted.tolist(), p_sorted=p_sorted.tolist(),
        p_original=p_sorted.tolist(), thresholds=thresholds.tolist(),
        dropped_table=truncated_mass_table(q_sorted[pivot:].tolist(), below, thresholds.size),
        majority_mass=float(q_sorted[:pivot].sum()),
        minority_mass=float(q_sorted[pivot:].sum()),
        residual=0.0, below=below, iterations=sum(below))
    return Round(t, np.asarray(advices, dtype=float), play)


def new_play(rnd, t, **changes):
    """Round ``t`` of ``rnd``'s advice with a new ``Play``: a copy of its play with ``changes``."""
    return Round(t, rnd.advices, dataclasses.replace(rnd.play, **changes))



def reference_check_round(rnd, gamma, num_arms, tol=1e-9):
    """The per-round structural rules as whole-array NumPy expressions.

    The proportionality rule is evaluated on the full threshold-by-arm
    matrix of the densified removed-mass table, and the table's two ends
    against the minority masses summed in arm order.  ``check_round`` must name the same rules
    in the same order with margins within 1e-12 on every finite play.
    """
    violations = []
    k = rnd.play.pivot
    zeta = np.asarray(rnd.play.zeta_sorted)
    q = np.asarray(rnd.play.q_sorted)
    p = np.asarray(rnd.play.p_sorted)
    thresholds = np.asarray(rnd.play.thresholds)

    zeta_majority = float(zeta[:k].sum())
    if thresholds.size:
        table = densify(rnd.play.dropped_table, thresholds.size)
        aux_majority = np.outer(rnd.play.majority_mass + table, q[:k]) / rnd.play.majority_mass
        lhs = aux_majority * zeta_majority
        rhs = np.outer(1.0 - (rnd.play.minority_mass - table), zeta[:k])
        margin = float(np.max(np.abs(lhs - rhs)))
        if margin > tol:
            violations.append(Violation(
                rnd.t, "threshold_advice_proportionality", margin,
                "auxiliary majority advice is not a common rescale of the mixture"))
        minority = q[k:]
        ends = thresholds[[0, -1]]
        removed = np.array([minority[minority <= s].sum() for s in ends])
        margin = float(np.max(np.abs(table[[0, -1]] - removed)))
        if margin > tol:
            violations.append(Violation(
                rnd.t, "removed_mass_table", margin,
                "the removed-mass table disagrees with the solved minority masses"))

    over = float(np.max(q[k:] - zeta[k:], initial=0.0))
    if over > tol:
        violations.append(Violation(
            rnd.t, "minority_cap", over,
            "solved mass exceeds the mixture on a minority arm"))
    under = float(np.max(zeta[:k] - q[:k]))
    if under > tol:
        violations.append(Violation(
            rnd.t, "majority_floor", under,
            "solved mass fell below the mixture on a majority arm"))
    floor = 1.0 / (2.0 * num_arms)
    short = float(np.max(floor - zeta[:k]))
    if short > tol:
        violations.append(Violation(
            rnd.t, "pivot_mass_floor", short,
            f"majority mixture mass fell below 1/(2K) = {floor}"))

    shrink = float(np.max((1.0 - 2.0 * num_arms * gamma) * p - q))
    if shrink > tol:
        violations.append(Violation(
            rnd.t, "play_mass_upper", shrink,
            "played mass exceeds the truncation growth factor"))
    support = p > 0.0
    drop = float(np.max(q[support] - p[support], initial=0.0))
    if drop > tol:
        violations.append(Violation(
            rnd.t, "play_mass_support", drop,
            "a played arm lost mass relative to the solved distribution"))
    return violations


def observed(rnd, losses, num_arms, gamma=0.0):
    """A fresh auditor after it has observed one round."""
    auditor = Auditor(num_arms=num_arms, num_experts=rnd.advices.shape[0], gamma=gamma)
    auditor.observe_round(*rnd, losses)
    return auditor


def loss_violations(rnd, losses, num_arms):
    """The round's majority-loss violations, as a fresh auditor records them."""
    return [v for v in observed(rnd, losses, num_arms).violations
            if v.rule == "majority_loss_round"]


def reference_check_round_losses(rnd, losses, num_arms, tol=1e-9):
    """Per-round majority loss domination as whole-array NumPy expressions."""
    losses_sorted = np.asarray(losses, dtype=float)[rnd.play.perm.forward]
    p_sorted = np.asarray(rnd.play.p_sorted)
    observable = losses_sorted * (p_sorted > 0.0)
    majority_part = float(observable[:rnd.play.pivot].sum())
    expected = float(p_sorted @ losses_sorted)
    margin = majority_part - 2.0 * num_arms * expected
    if margin > tol:
        return [Violation(rnd.t, "majority_loss_round", margin,
                          "majority loss mass exceeded 2K times the expected loss")]
    return []

class TestRegretReport:
    def test_empty(self):
        report = RegretReport.empty(3)
        assert report.total_play_loss == 0.0
        assert report.rounds == 0
        np.testing.assert_array_equal(report.per_expert_loss, np.zeros(3))

    def test_regret_uses_best_expert(self):
        report = RegretReport(per_expert_loss=np.array([5.0, 2.0, 9.0]),
                              total_play_loss=6.5)
        assert report.best_expert_loss == 2.0
        assert report.regret == 4.5

    @pytest.mark.parametrize("num_experts", range(1, 17))
    def test_best_expert_loss_is_numpy_min_bit_for_bit(self, num_experts):
        # Read in Python, the best expert's loss is NumPy's minimum to the
        # bit and the sign, also with NaN, an infinity or a zero of either
        # sign at any position, over base vectors that hold zeros of both
        # signs, negatives and infinities themselves.
        rng = np.random.default_rng(400 + num_experts)
        specials = (np.nan, np.inf, -np.inf, 0.0, -0.0)
        bases = [rng.uniform(0.0, 50.0, num_experts),
                 rng.choice([0.0, -0.0, 0.5, 2.0, 7.25], num_experts),
                 rng.choice([0.0, -0.0], num_experts),
                 rng.choice([-3.0, 0.0, -0.0, 1.5, np.inf, -np.inf], num_experts)]
        for base in bases:
            for position in range(num_experts):
                for special in specials:
                    losses = base.copy()
                    losses[position] = special
                    got = RegretReport(per_expert_loss=losses).best_expert_loss
                    want = float(losses.min())
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), losses


class TestAccumulate:
    def test_point_mass_play_splits_majority_loss(self):
        rnd = make_round(zeta_sorted=[1.0, 0.0], pivot=1,
                         q_sorted=[1.0, 0.0], p_sorted=[1.0, 0.0],
                         advices=[[1.0, 0.0], [1.0, 0.0]])
        report = observed(rnd, np.array([0.3, 0.9]), num_arms=2).report
        assert report.total_play_loss == pytest.approx(0.3, abs=1e-15)
        assert report.majority_loss == pytest.approx(0.3, abs=1e-15)
        assert report.minority_loss == 0.0
        assert report.rounds == 1
        np.testing.assert_allclose(report.per_expert_loss, [0.3, 0.3], atol=1e-15)

    def test_minority_loss_counted_only_on_played_support(self):
        # Minority arm 2 keeps positive play mass, minority arm 3 does not:
        # only the reachable arm's loss lands in the minority bucket.
        rnd = make_round(zeta_sorted=[0.4, 0.3, 0.2, 0.1], pivot=2,
                         q_sorted=[0.45, 0.33, 0.15, 0.07],
                         p_sorted=[0.48, 0.36, 0.16, 0.0])
        losses = np.array([0.2, 0.4, 0.6, 0.8])
        report = observed(rnd, losses, num_arms=4).report
        assert report.majority_loss == pytest.approx(0.6, abs=1e-15)
        assert report.minority_loss == pytest.approx(0.6, abs=1e-15)
        assert report.total_play_loss == pytest.approx(
            float(rnd.play.p_sorted @ losses), abs=1e-15)

    def test_baseline_trace_skips_split(self):
        rnd = Round(1, np.array([[0.5, 0.5]]),
                    BaselinePlay(p_original=np.array([0.5, 0.5])))
        auditor = Auditor(num_arms=2, num_experts=1)
        assert auditor.observe_round(*rnd, np.array([1.0, 0.0])) == 0
        report = auditor.report
        assert auditor.violations == []
        assert report.total_play_loss == 0.5
        assert report.majority_loss == 0.0
        assert report.minority_loss == 0.0


def clean_round():
    """A three-arm round that passes every rule."""
    return make_round(zeta_sorted=[0.55, 0.25, 0.2], pivot=1,
                      q_sorted=[0.62, 0.22, 0.16],
                      p_sorted=[0.62, 0.22, 0.16],
                      thresholds=[0.25, 0.5])


class TestCheckRoundRules:
    def base_round(self):
        return clean_round()

    def test_consistent_trace_is_clean(self):
        rnd = self.base_round()
        violations = check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)
        assert violations == []

    def test_disproportionate_majority_scaling_breaks_proportionality(self):
        # The auxiliary advice identity needs the solved majority masses to
        # be a common rescale of the mixture; skewing one arm breaks it.
        rnd = make_round(zeta_sorted=[0.4, 0.35, 0.25], pivot=2,
                         q_sorted=[0.45, 0.4, 0.15],
                         p_sorted=[0.45, 0.4, 0.15],
                         thresholds=[0.25, 0.5])
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "threshold_advice_proportionality" in rules

    def test_minority_above_mixture_is_flagged(self):
        rnd = self.base_round()
        rnd.play.q_sorted = np.array([0.5, 0.28, 0.22])
        rnd.play.p_sorted = rnd.play.q_sorted.copy()
        rnd.play.p_original = rnd.play.q_sorted.copy()
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "minority_cap" in rules

    def test_majority_below_mixture_is_flagged(self):
        rnd = self.base_round()
        rnd.play.q_sorted = np.array([0.5, 0.28, 0.22])
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "majority_floor" in rules

    def test_light_majority_mixture_is_flagged(self):
        rnd = make_round(zeta_sorted=[0.9, 0.08, 0.02], pivot=2,
                         q_sorted=[0.9, 0.08, 0.02],
                         p_sorted=[0.9, 0.08, 0.02])
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "pivot_mass_floor" in rules

    def test_overgrown_play_mass_is_flagged(self):
        rnd = self.base_round()
        rnd.play.p_sorted = np.array([0.0, 0.0, 1.0])
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "play_mass_upper" in rules

    def test_played_arm_losing_mass_is_flagged(self):
        rnd = self.base_round()
        rnd.play.p_sorted = np.array([0.6, 0.24, 0.16])
        rules = {v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)}
        assert "play_mass_support" in rules

    def test_violation_records_round_and_margin(self):
        rnd = self.base_round()
        rnd = rnd._replace(t=17)
        rnd.play.q_sorted = np.array([0.5, 0.28, 0.22])
        violations = check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)
        flagged = [v for v in violations if v.rule == "minority_cap"]
        assert flagged and flagged[0].t == 17
        assert flagged[0].margin == pytest.approx(0.03, abs=1e-12)


class TestCheckRoundLosses:
    def test_majority_loss_within_factor_passes(self):
        rnd = make_round(zeta_sorted=[0.7, 0.3], pivot=1,
                         q_sorted=[0.7, 0.3], p_sorted=[0.7, 0.3])
        assert loss_violations(rnd, np.array([1.0, 0.0]), num_arms=2) == []

    def test_starved_majority_play_is_flagged(self):
        rnd = make_round(zeta_sorted=[0.7, 0.3], pivot=1,
                         q_sorted=[0.7, 0.3], p_sorted=[0.01, 0.99])
        violations = loss_violations(rnd, np.array([1.0, 0.0]), num_arms=2)
        assert [v.rule for v in violations] == ["majority_loss_round"]
        assert violations[0].margin == pytest.approx(1.0 - 4.0 * 0.01, abs=1e-12)

    def test_unplayed_majority_arm_does_not_count(self):
        rnd = make_round(zeta_sorted=[0.4, 0.35, 0.25], pivot=2,
                         q_sorted=[0.5, 0.4, 0.1], p_sorted=[0.55, 0.0, 0.45])
        violations = loss_violations(rnd, np.array([0.0, 1.0, 0.0]), num_arms=3)
        assert violations == []


def finalized(total_play_loss, majority_loss, num_arms):
    """The violations ``finalize`` records on a report with these totals."""
    auditor = Auditor(num_arms=num_arms, num_experts=1)
    auditor.report = RegretReport(per_expert_loss=np.zeros(1),
                                  total_play_loss=total_play_loss,
                                  majority_loss=majority_loss)
    return auditor.finalize()


class TestMajorityBound:
    def test_pass_and_margin(self):
        # Margin 35 - 2 * 2 * 10 = -5: within the bound.
        assert finalized(10.0, 35.0, num_arms=2) == []
        flagged = finalized(10.0, 45.0, num_arms=2)
        assert flagged[0].margin == pytest.approx(5.0)

    def test_fail(self):
        violations = finalized(10.0, 40.5, num_arms=2)
        assert [v.rule for v in violations] == ["majority_loss_cumulative"]
        assert violations[0].margin == pytest.approx(0.5)


class TestTheoremBound:
    def test_zero_loss_scale(self):
        assert theorem_bound_value(2, 4, 10000, 0.0) == pytest.approx(
            21.193269466192145, rel=1e-14)

    def test_positive_loss_scale(self):
        assert theorem_bound_value(2, 4, 10000, 100.0) == pytest.approx(
            67.22941772621944, rel=1e-14)
        assert theorem_bound_value(2, 4, 10000, 1600.0) == pytest.approx(
            205.33786250630132, rel=1e-14)

    def test_large_loss_scale_does_not_overflow(self):
        # width * L is inf at L = 1e308, so the roots are taken in turn.
        width = 2 * math.log(20)
        bound = theorem_bound_value(2, 4, 5, 1e308)
        assert bound == math.sqrt(width) * math.sqrt(1e308) + width
        assert bound == pytest.approx(2.4477468306808166e154, rel=1e-14)
        # A finite product keeps the one-root expression and its bits.
        l_star = 1e307
        assert width * l_star < math.inf
        assert theorem_bound_value(2, 4, 5, l_star) == math.sqrt(width * l_star) + width

    def test_evaluate_records_and_compares(self):
        # The run's pass test: an auditor's regret against factor 10 times
        # the bound, as ``cli.execute`` compares them.
        bound = theorem_bound_value(2, 4, 10000, 0.0)
        assert bound == pytest.approx(21.193269466192145, rel=1e-14)
        rnd = Round(1, np.array([[0.0, 1.0]]),
                    BaselinePlay(p_original=np.array([1.0, 0.0])))
        auditor = Auditor(num_arms=2, num_experts=1)
        for _ in range(50):
            auditor.observe_round(*rnd, np.array([1.0, 0.0]))
        assert auditor.report.regret == 50.0
        assert auditor.report.regret <= 10.0 * bound
        for _ in range(450):
            auditor.observe_round(*rnd, np.array([1.0, 0.0]))
        assert not auditor.report.regret <= 10.0 * bound


class TestAuditorStreaming:
    def test_clean_run_has_no_violations(self):
        spec = EnvSpec(kind="zero_loss_expert", num_arms=3, num_experts=4,
                       horizon=120, seed=5)
        cfg = MygaConfig(num_arms=3, num_experts=4, eta=0.2, gamma=0.1, grid_denominator=240)
        policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(1))
        auditor = Auditor(num_arms=3, num_experts=4, gamma=cfg.gamma)
        run_policy(policy, spec, auditor)
        assert auditor.finalize() == []
        assert auditor.report.rounds == 120

    def test_regret_matches_independent_accounting(self):
        spec = EnvSpec(kind="stochastic_gap", num_arms=3, num_experts=3,
                       horizon=200, seed=9, mu_star=0.2, delta=0.3)
        cfg = MygaConfig(num_arms=3, num_experts=3, eta=0.1, gamma=0.05, grid_denominator=400)
        policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(2))
        auditor = Auditor(num_arms=3, num_experts=3, gamma=cfg.gamma)
        play_loss = 0.0
        expert_loss = np.zeros(3)
        for t in range(1, 201):
            data = generate(spec, t)
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            policy.update(arm, float(data.losses[arm]))
            auditor.observe_round(t, data.advices, play, data.losses)
            play_loss += float(p @ data.losses)
            expert_loss += data.advices @ data.losses
        auditor.finalize()
        assert auditor.report.total_play_loss == pytest.approx(play_loss, abs=1e-9)
        assert auditor.report.regret == pytest.approx(
            play_loss - expert_loss.min(), abs=1e-9)

    def test_corrupted_rounds_are_caught(self, corrupted_solve):
        cfg = MygaConfig(num_arms=2, num_experts=2, eta=0.5, gamma=0.01, grid_denominator=200)
        policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(3))
        auditor = Auditor(num_arms=2, num_experts=2, gamma=cfg.gamma)
        advices = np.array([[1.0, 0.0], [0.4, 0.6]])
        p, play = policy.advise(advices)
        count = auditor.observe_round(1, advices, play, np.array([0.2, 0.7]))
        assert count > 0
        rules = {v.rule for v in auditor.violations}
        assert "minority_cap" in rules
        assert "majority_floor" in rules

    def test_disabled_auditor_still_accounts(self):
        rnd = make_round(zeta_sorted=[0.9, 0.08, 0.02], pivot=2,
                         q_sorted=[0.9, 0.08, 0.02],
                         p_sorted=[0.9, 0.08, 0.02])
        auditor = Auditor(num_arms=3, num_experts=2, gamma=0.05, enabled=False)
        assert auditor.observe_round(*rnd, np.array([0.1, 0.2, 0.3])) == 0
        assert auditor.finalize() == []
        assert auditor.report.rounds == 1

    def test_finalize_appends_cumulative_violation(self):
        auditor = Auditor(num_arms=2, num_experts=1, gamma=0.05)
        auditor.report.majority_loss = 10.0
        auditor.report.total_play_loss = 1.0
        auditor.report.rounds = 7
        violations = auditor.finalize()
        assert [v.rule for v in violations] == ["majority_loss_cumulative"]
        assert violations[0].t == 7


class TestNonFiniteTrace:
    @pytest.mark.parametrize("field,arm", [("q_sorted", 0), ("q_sorted", 2),
                                           ("p_sorted", 0), ("p_sorted", 2),
                                           ("zeta_sorted", 1)])
    def test_nan_mass_is_flagged(self, field, arm):
        rnd = clean_round()
        getattr(rnd.play, field)[arm] = np.nan
        violations = check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)
        assert [v.rule for v in violations] == ["non_finite_trace"]
        assert math.isnan(violations[0].margin)

    def test_infinite_block_mass_is_flagged(self):
        rnd = clean_round()
        rnd.play.minority_mass = np.inf
        assert [v.rule for v in check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)] == [
            "non_finite_trace"]

    def test_nan_play_mass_fails_loss_domination(self):
        rnd = clean_round()
        rnd.play.p_sorted[0] = rnd.play.p_original[0] = np.nan
        auditor = observed(rnd, np.array([1.0, 0.0, 0.0]), num_arms=3, gamma=0.05)
        assert [v.rule for v in auditor.violations] == ["non_finite_trace",
                                                        "majority_loss_round"]
        assert math.isnan(auditor.violations[1].margin)

    def test_auditor_records_nan_round(self):
        rnd = clean_round()
        rnd.play.q_sorted[1] = np.nan
        auditor = Auditor(num_arms=3, num_experts=2, gamma=0.05)
        assert auditor.observe_round(*rnd, np.array([0.1, 0.2, 0.3])) == 1
        assert [v.rule for v in auditor.violations] == ["non_finite_trace"]


ROUND_RULES = ("threshold_advice_proportionality", "removed_mass_table", "minority_cap",
               "majority_floor",
               "pivot_mass_floor", "play_mass_upper", "play_mass_support",
               "majority_loss_round")


def captured_rounds(cfg, spec, rounds):
    """(round, losses, gamma) for the first ``rounds`` rounds of one policy run."""
    policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(spec.seed))
    captured = []
    for t in range(1, rounds + 1):
        data = generate(spec, t)
        p, play = policy.advise(data.advices)
        arm = policy.sample(p)
        policy.update(arm, float(data.losses[arm]))
        captured.append((Round(t, data.advices, play), data.losses, cfg.gamma))
    return captured


def moved(value, rng):
    """``value`` scaled by a factor in [0, 1.5) or shifted by up to about 0.3 either way."""
    if rng.random() < 0.5:
        return value * rng.uniform(0.0, 1.5)
    return value + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -0.5)


def spoiled(rnd, rng):
    """A copy of ``rnd`` with one to three of its masses moved.

    Each move takes one mixture, solved or played mass, on either side of
    the pivot, or one of the two block masses.  A moved block mass breaks
    majority + minority = 1, which is what puts the largest
    proportionality gap at the smallest removed mass rather than the
    largest.  A moved played mass moves in both coordinates, as the
    played distribution of a policy's play is one distribution.
    """
    copy = new_play(rnd, rnd.t, zeta_sorted=rnd.play.zeta_sorted.copy(),
                    q_sorted=rnd.play.q_sorted.copy(), p_sorted=rnd.play.p_sorted.copy())
    play = copy.play
    num_arms = len(play.zeta_sorted)
    for _ in range(int(rng.integers(1, 4))):
        target = int(rng.integers(4))
        if target == 3:
            name = ("majority_mass", "minority_mass")[rng.integers(2)]
            setattr(play, name, moved(getattr(play, name), rng))
            continue
        values = getattr(play, ("zeta_sorted", "q_sorted", "p_sorted")[target])
        if play.pivot == num_arms or rng.random() < 0.5:
            arm = int(rng.integers(0, play.pivot))
        else:
            arm = int(rng.integers(play.pivot, num_arms))
        values[arm] = moved(float(values[arm]), rng)
    play.p_original = play.perm.to_original(play.p_sorted)
    return copy


@pytest.fixture(scope="module")
def round_families():
    """Rounds from five sources, each audited clean as captured.

    A short gap_wide_grid-shaped run (K=2, E=4, scheduled for T=10^4, so
    the grid has 7698 thresholds), a short minority_lattice-shaped run
    (K=5, E=8, advice on the 1/4000 lattice, grid 400), a run whose grid
    is empty (gamma = 1/2), and hand-built rounds whose pivot is K.  In
    those four every removed-mass table is constant, so a fifth run, with
    Dirichlet advice from 20 experts and a 9-threshold grid, supplies
    minority arms kept by some thresholds and removed by others.
    """
    eta, gamma = schedule_parameters(2, 4, 10_000, 1600.0)
    gap = captured_rounds(
        MygaConfig(num_arms=2, num_experts=4, eta=eta, gamma=gamma, grid_denominator=20_000),
        EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4, horizon=10_000,
                seed=3, mu_star=0.16, delta=0.2), 60)
    lattice = captured_rounds(
        MygaConfig(num_arms=5, num_experts=8, eta=0.2, gamma=0.4, grid_denominator=4000),
        EnvSpec(kind="adversarial_minority", num_arms=5, num_experts=8,
                horizon=2000, seed=3), 60)
    empty_grid = captured_rounds(
        MygaConfig(num_arms=3, num_experts=2, eta=0.3, gamma=0.5, grid_denominator=60),
        EnvSpec(kind="stochastic_gap", num_arms=3, num_experts=2, horizon=30, seed=1),
        30)
    varying_table = captured_rounds(
        MygaConfig(num_arms=3, num_experts=20, eta=0.3, gamma=0.05, grid_denominator=20),
        EnvSpec(kind="zero_loss_expert", num_arms=3, num_experts=20, horizon=40,
                seed=2), 40)
    full_pivot = [
        (make_round(zeta_sorted=zeta, pivot=len(zeta), q_sorted=zeta, p_sorted=zeta,
                    thresholds=[0.1, 0.2, 0.3]), np.array(losses), 0.05)
        for zeta, losses in (([0.6, 0.4], [1.0, 0.0]),
                             ([0.4, 0.35, 0.25], [0.3, 0.9, 0.1]),
                             ([0.3, 0.3, 0.2, 0.2], [0.0, 1.0, 0.5, 0.2]))]
    assert len(gap[0][0].play.thresholds) == 7698
    assert len(lattice[0][0].play.thresholds) == 400
    assert len(empty_grid[0][0].play.thresholds) == 0
    assert sum(len(rnd.play.dropped_table.values) > 1 for rnd, _, _ in varying_table) >= 30
    return {"gap_wide_grid": gap, "minority_lattice": lattice,
            "empty_grid": empty_grid, "pivot_is_k": full_pivot,
            "varying_table": varying_table}


class TestReferenceAgreement:
    def audit_both(self, rnd, losses, gamma):
        num_arms = len(rnd.play.zeta_sorted)
        got = observed(rnd, losses, num_arms, gamma).violations
        want = (reference_check_round(rnd, gamma, num_arms)
                + reference_check_round_losses(rnd, losses, num_arms))
        assert [(v.t, v.rule, v.detail) for v in got] == \
            [(v.t, v.rule, v.detail) for v in want]
        for mine, ref in zip(got, want):
            assert abs(mine.margin - ref.margin) <= 1e-12
        return got

    def test_captured_rounds_are_clean_under_both(self, round_families):
        for rounds in round_families.values():
            for rnd, losses, gamma in rounds:
                assert self.audit_both(rnd, losses, gamma) == []

    def test_spoiled_rounds_match_reference(self, round_families):
        rng = np.random.default_rng(20180309)
        fired = {name: set() for name in round_families}
        for name, rounds in round_families.items():
            for _ in range(100):
                rnd, losses, gamma = rounds[int(rng.integers(len(rounds)))]
                violations = self.audit_both(spoiled(rnd, rng), losses, gamma)
                fired[name].update(v.rule for v in violations)
        assert set().union(*fired.values()) == set(ROUND_RULES)
        assert "threshold_advice_proportionality" in fired["pivot_is_k"]
        assert "threshold_advice_proportionality" in fired["varying_table"]
        assert "threshold_advice_proportionality" not in fired["empty_grid"]


class TestRemovedMassTable:
    def test_wrong_tables_are_flagged(self, round_families):
        # The rounds whose grid is not empty, each with its table replaced
        # by three wrong copies: every copy that differs from the table is
        # flagged by this rule, with the same margin as the reference.
        rounds = [entry for name in ("gap_wide_grid", "minority_lattice", "varying_table")
                  for entry in round_families[name]]
        assert len(rounds) * 3 == 480
        flagged = 0
        for rnd, losses, gamma in rounds:
            breaks, table = rnd.play.dropped_table
            for wrong in ([0.0 * v for v in table], [2.0 * v for v in table],
                          [7.0 * v + 0.3 for v in table]):
                copy = new_play(rnd, rnd.t, dropped_table=StepFunction(breaks, wrong))
                violations = TestReferenceAgreement().audit_both(copy, losses, gamma)
                if wrong == table:
                    assert "removed_mass_table" not in {v.rule for v in violations}
                else:
                    assert "removed_mass_table" in {v.rule for v in violations}
                    flagged += 1
        assert flagged >= 400

    def test_pivot_at_k_table_must_be_zero(self, round_families):
        for rnd, losses, gamma in round_families["pivot_is_k"]:
            breaks, table = rnd.play.dropped_table
            copy = new_play(rnd, rnd.t,
                            dropped_table=StepFunction(breaks, [v + 0.3 for v in table]))
            num_arms = len(copy.play.zeta_sorted)
            rules = [v.rule for v in check_round(copy.t, copy.play, gamma, num_arms)]
            assert "removed_mass_table" in rules

    def test_margin_is_the_larger_end_gap(self):
        rnd = clean_round()    # minority masses 0.22 and 0.16, thresholds 0.25 and 0.5
        rnd.play.dropped_table = StepFunction([0, 1], [0.38, 0.38 + 1e-3])
        violations = check_round(rnd.t, rnd.play, gamma=0.05, num_arms=3)
        table = [v for v in violations if v.rule == "removed_mass_table"]
        assert table and table[0].margin == pytest.approx(1e-3, abs=1e-15)


def repeated_rounds(rounds):
    """A two-arm policy's rounds over ``rounds`` rounds of one advice matrix and no loss.

    No round charges an expert and the advice repeats, so every round after
    the first reuses the first round's play: ``advise`` returns the same ``Play``.
    """
    policy = MygaPolicy(MygaConfig(num_arms=2, num_experts=2, eta=0.5, gamma=0.01,
                                   grid_denominator=200),
                        sample_rng=np.random.default_rng(3))
    rnds = []
    for t in range(1, rounds + 1):
        advices = np.array([[1.0, 0.0], [0.4, 0.6]])
        p, play = policy.advise(advices)
        policy.update(policy.sample(p), 0.0)
        rnds.append(Round(t, advices, play))
    first = rnds[0]
    assert all(rnd.play is first.play for rnd in rnds)
    assert len(rnds) == rounds and policy._pending is None
    return rnds


def per_round(rnds, losses, gamma, num_arms):
    """Every round's violations as a fresh auditor records them for that round alone."""
    return [v for rnd in rnds
            for v in observed(rnd, losses, num_arms, gamma).violations]


class TestRepeatedPlay:
    LOSSES = np.array([0.0, 1.0])

    def test_shared_list_violation_recorded_every_round(self):
        # A minority mass above the mixture, written into the play every
        # reused round shares before any round is audited.
        rnds = repeated_rounds(6)
        rnds[0].play.q_sorted[1] = rnds[0].play.zeta_sorted[1] + 0.01
        auditor = Auditor(num_arms=2, num_experts=2, gamma=0.01)
        counts = [auditor.observe_round(*rnd, self.LOSSES) for rnd in rnds]
        flagged = [v for v in auditor.violations if v.rule == "minority_cap"]
        assert [v.t for v in flagged] == [1, 2, 3, 4, 5, 6]
        assert len({v.margin for v in flagged}) == 1
        assert counts == [len(check_round(rnd.t, rnd.play, 0.01, 2)) for rnd in rnds]
        assert auditor.violations == per_round(rnds, self.LOSSES, 0.01, 2)

    def test_patched_rule_fails_every_round_checked_once(self, monkeypatch):
        # With a negative tolerance every rule fails; the play is checked
        # once and each round records the failures with its own t.
        monkeypatch.setattr(audit_mod, "AUDIT_TOL", -1.0)
        calls = []

        def counted(t, play, gamma, num_arms):
            calls.append(t)
            return check_round(t, play, gamma, num_arms)

        monkeypatch.setattr(audit_mod, "check_round", counted)
        rnds = repeated_rounds(5)
        auditor = Auditor(num_arms=2, num_experts=2, gamma=0.01)
        for rnd in rnds:
            assert auditor.observe_round(*rnd, self.LOSSES) == 8
        assert calls == [1]
        assert auditor.violations == per_round(rnds, self.LOSSES, 0.01, 2)

    def test_new_lists_after_a_streak_are_checked_afresh(self):
        rnds = repeated_rounds(4)
        auditor = Auditor(num_arms=2, num_experts=2, gamma=0.01)
        for rnd in rnds:
            assert auditor.observe_round(*rnd, self.LOSSES) == 0
        last = rnds[-1]
        spoiled_q = [last.play.q_sorted[0] - 0.01, last.play.q_sorted[1] + 0.01]
        fresh = [
            new_play(last, 5, q_sorted=spoiled_q),          # new play
            new_play(last, 6, q_sorted=list(spoiled_q)),    # equal values, new play
            last._replace(t=7),                             # the streak's play again
            new_play(last, 8, majority_mass=last.play.majority_mass + 0.01),
        ]
        for rnd in fresh:
            auditor.observe_round(*rnd, self.LOSSES)
        got = [(v.t, v.rule) for v in auditor.violations]
        assert got == [(v.t, v.rule) for v in per_round(fresh, self.LOSSES, 0.01, 2)]
        assert {t for t, _ in got} == {5, 6, 8}

    def test_one_check_and_record_per_play_object(self, monkeypatch):
        # Rounds that share one ``Play`` are checked and recorded once.  A new
        # ``Play`` is checked and recorded afresh, even when it holds the last
        # play's very lists and values.
        checked, built = [], []
        check, played_arms = audit_mod.check_round, audit_mod._played_arms

        def counted_check(t, play, gamma, num_arms):
            checked.append((t, play))
            return check(t, play, gamma, num_arms)

        def counted_arms(play):
            built.append(play)
            return played_arms(play)

        monkeypatch.setattr(audit_mod, "AUDIT_TOL", -1.0)   # every rule records
        monkeypatch.setattr(audit_mod, "check_round", counted_check)
        monkeypatch.setattr(audit_mod, "_played_arms", counted_arms)
        rnds = repeated_rounds(3)
        rnds += [new_play(rnds[-1], 4), new_play(rnds[-1], 5)]
        rnds += [rnds[-1]._replace(t=t) for t in (6, 7)]
        assert rnds[4].play == rnds[0].play and rnds[4].play is not rnds[3].play
        auditor = Auditor(num_arms=2, num_experts=2, gamma=0.01)
        built_at = []
        for rnd in rnds:
            before = len(built)
            assert auditor.observe_round(*rnd, self.LOSSES) == 8
            built_at += [rnd.t] * (len(built) - before)
        assert [t for t, _ in checked] == built_at == [1, 4, 5]
        for t, play in checked:
            assert play is rnds[t - 1].play
        assert all(play is rnds[t - 1].play for play, t in zip(built, built_at))
        assert auditor.violations == per_round(rnds, self.LOSSES, 0.01, 2)


def _played_losses(play: Play, losses: list[float]) -> tuple[float, float]:
    """The round's loss on played majority arms and on played minority arms.

    Arms are taken in sorted order and added one at a time, the order in
    which NumPy sums arrays of fewer than eight entries.
    """
    k = play.pivot
    majority = minority = 0.0
    for i, (mass, arm) in enumerate(zip(play.p_sorted, play.perm.forward)):
        if mass > 0.0:
            if i < k:
                majority += losses[arm]
            else:
                minority += losses[arm]
    return majority, minority


class ReferenceAuditor:
    """The auditor's per-round work, done in full every round.

    Each round runs ``check_round``, ``_played_losses`` and the expected
    loss as ``list @ ndarray``, with no memory of the last round's play.
    """

    def __init__(self, num_arms, num_experts, gamma=0.0):
        self.num_arms = num_arms
        self.gamma = gamma
        self.report = RegretReport.empty(num_experts)
        self.violations = []

    def observe_round(self, t, advices, play, losses):
        losses = np.asarray(losses, dtype=float)
        report = self.report
        expected = float(play.p_original @ losses)
        report.total_play_loss += expected
        report.per_expert_loss += advices @ losses
        report.rounds += 1
        if not isinstance(play, Play):
            return
        majority, minority = _played_losses(play, losses.tolist())
        report.majority_loss += majority
        report.minority_loss += minority
        found = check_round(t, play, self.gamma, self.num_arms)
        margin = majority - 2.0 * self.num_arms * expected
        if not margin <= audit_mod.AUDIT_TOL:
            found.append(Violation(t, "majority_loss_round", margin,
                                   "majority loss mass exceeded 2K times the expected loss"))
        self.violations.extend(found)


def report_bits(report):
    """A report's fields, floats by their bits."""
    return (report.per_expert_loss.tobytes(), report.total_play_loss.hex(),
            report.majority_loss.hex(), report.minority_loss.hex(), report.rounds)


def violation_bits(violations):
    return [(v.t, v.rule, float(v.margin).hex(), v.detail) for v in violations]


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("policy", ["myga", "exp4_threshold"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stochastic_gap_run_matches_bit_for_bit(self, policy, seed):
        # K=2, E=4, T=2000: most rounds lose nothing and repeat the play.
        horizon = 2000
        spec = EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4,
                       horizon=horizon, seed=seed)
        eta, gamma = schedule_parameters(2, 4, horizon, float(horizon))
        if policy == "myga":
            pol = MygaPolicy(MygaConfig(num_arms=2, num_experts=4, eta=eta, gamma=gamma,
                                        grid_denominator=2 * horizon),
                             sample_rng=np.random.default_rng(seed))
        else:
            pol = Exp4Policy(Exp4Config(num_arms=2, num_experts=4, eta=eta, gamma=gamma),
                             sample_rng=np.random.default_rng(seed))
        auditor, reference = Auditor(2, 4, gamma), ReferenceAuditor(2, 4, gamma)
        repeats = 0
        last = None
        for t in range(1, horizon + 1):
            data = generate(spec, t)
            p, play = pol.advise(data.advices)
            arm = pol.sample(p)
            pol.update(arm, float(data.losses[arm]))
            auditor.observe_round(t, data.advices, play, data.losses)
            reference.observe_round(t, data.advices, play, data.losses)
            repeats += last is not None and play.p_original is last.p_original
            last = play
        assert repeats > horizon // 2
        assert report_bits(auditor.report) == report_bits(reference.report)
        assert violation_bits(auditor.violations) == violation_bits(reference.violations)

    @pytest.mark.parametrize("policy, env", [("myga", "adversarial_minority"),
                                             ("exp4_threshold", "zero_loss_expert")])
    def test_never_repeating_run_matches_bit_for_bit(self, policy, env):
        # The advice changes every round, so no play repeats and every round
        # builds its play's record.
        horizon = 2000
        if policy == "myga":   # minority_lattice's cell: K=5, E=8 on the threshold lattice
            arms, experts, gamma = 5, 8, 0.4
            pol = MygaPolicy(MygaConfig(num_arms=arms, num_experts=experts, eta=0.2,
                                        gamma=gamma, grid_denominator=4000),
                             sample_rng=np.random.default_rng(0))
        else:
            arms, experts = 3, 4
            eta, gamma = schedule_parameters(arms, experts, horizon, float(horizon))
            pol = Exp4Policy(Exp4Config(num_arms=arms, num_experts=experts, eta=eta,
                                        gamma=gamma),
                             sample_rng=np.random.default_rng(0))
        spec = EnvSpec(kind=env, num_arms=arms, num_experts=experts, horizon=horizon, seed=0)
        auditor = Auditor(arms, experts, gamma)
        reference = ReferenceAuditor(arms, experts, gamma)
        repeats = 0
        last = None
        for t in range(1, horizon + 1):
            data = generate(spec, t)
            p, play = pol.advise(data.advices)
            arm = pol.sample(p)
            pol.update(arm, float(data.losses[arm]))
            auditor.observe_round(t, data.advices, play, data.losses)
            reference.observe_round(t, data.advices, play, data.losses)
            repeats += last is not None and play.p_original is last.p_original
            last = play
        assert repeats == 0
        assert report_bits(auditor.report) == report_bits(reference.report)
        assert violation_bits(auditor.violations) == violation_bits(reference.violations)


class TestPlayRecord:
    LOSSES = np.array([0.0, 1.0])

    def test_record_built_once_per_distinct_play(self, monkeypatch):
        built = []
        played_arms = audit_mod._played_arms

        def counted(play):
            built.append(play)
            return played_arms(play)

        monkeypatch.setattr(audit_mod, "_played_arms", counted)
        rnds = repeated_rounds(6)
        last = rnds[-1]
        # The streak's play with its two arms swapped between the blocks: only
        # ``perm`` differs, so only the loss split can tell the records apart.
        swapped = ArmPermutation(forward=last.play.perm.forward[::-1],
                                 inverse=last.play.perm.inverse[::-1])
        rnds += [new_play(last, 7, perm=swapped),     # a new play
                 last._replace(t=8)]                  # the streak's play again
        auditor, reference = Auditor(2, 2, 0.01), ReferenceAuditor(2, 2, 0.01)
        built_at = []
        for rnd in rnds:
            before = len(built)
            auditor.observe_round(*rnd, self.LOSSES)
            reference.observe_round(*rnd, self.LOSSES)
            built_at += [rnd.t] * (len(built) - before)
        assert built_at == [1, 7, 8]
        assert all(play is rnds[t - 1].play for play, t in zip(built, built_at))
        assert auditor.report.majority_loss == 1.0   # round 7's majority arm is arm 1
        assert report_bits(auditor.report) == report_bits(reference.report)
        assert violation_bits(auditor.violations) == violation_bits(reference.violations)


class TestZeroLossRound:
    """A round whose losses are all zeros, of either sign, adds nothing to the expert losses."""

    @pytest.mark.parametrize("policy", ["myga", "exp4_threshold"])
    def test_policy_traces_match_the_full_add(self, policy):
        # K=2, E=4: about half the rounds lose nothing.  The auditors see each
        # of those rounds' losses as +0.0, as -0.0 or as a mix of both signs.
        horizon = 900
        spec = EnvSpec(kind="stochastic_gap", num_arms=2, num_experts=4,
                       horizon=horizon, seed=4)
        eta, gamma = schedule_parameters(2, 4, horizon, float(horizon))
        if policy == "myga":
            pol = MygaPolicy(MygaConfig(num_arms=2, num_experts=4, eta=eta, gamma=gamma,
                                        grid_denominator=2 * horizon),
                             sample_rng=np.random.default_rng(4))
        else:
            pol = Exp4Policy(Exp4Config(num_arms=2, num_experts=4, eta=eta, gamma=gamma),
                             sample_rng=np.random.default_rng(4))
        zeros = (np.array([0.0, 0.0]), np.array([-0.0, -0.0]), np.array([0.0, -0.0]))
        auditor, reference = Auditor(2, 4, gamma), ReferenceAuditor(2, 4, gamma)
        zero_rounds = 0
        for t in range(1, horizon + 1):
            data = generate(spec, t)
            p, play = pol.advise(data.advices)
            arm = pol.sample(p)
            pol.update(arm, float(data.losses[arm]))
            losses = data.losses
            if not losses.any():
                losses = zeros[zero_rounds % 3]
                zero_rounds += 1
            auditor.observe_round(t, data.advices, play, losses)
            reference.observe_round(t, data.advices, play, losses)
        assert zero_rounds > horizon // 3
        assert report_bits(auditor.report) == report_bits(reference.report)
        assert violation_bits(auditor.violations) == violation_bits(reference.violations)
        assert np.all(np.signbit(auditor.report.per_expert_loss) == 0)

    def test_expert_add_is_skipped(self):
        # Outside the precondition: an advice entry no row check would pass.
        # Its product with a zero loss is NaN, and the skipped add leaves it out.
        rnd = Round(1, np.array([[math.nan, 1.0], [0.5, 0.5]]),
                    BaselinePlay(p_original=[0.5, 0.5]))
        auditor = Auditor(num_arms=2, num_experts=2)
        auditor.observe_round(*rnd, np.array([-0.0, 0.0]))
        assert auditor.report.per_expert_loss.tobytes() == np.zeros(2).tobytes()
        auditor.observe_round(*rnd, np.array([0.0, 1.0]))
        assert np.isnan(auditor.report.per_expert_loss[0])
