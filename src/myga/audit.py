"""Runtime invariant auditing and regret accounting.

The auditor consumes one round at a time, its ``t``, its advice matrix
and the play ``advise`` returned, together with the true loss vector
(simulator knowledge), and checks the structural guarantees the policy's
play distribution must satisfy:

  * finite play: every mixture, solved and played mass, both block
    masses and the removed-mass table are finite; otherwise the round
    records ``non_finite_trace`` with margin nan and no other rule of
    ``check_round`` is evaluated on it;
  * threshold advice proportionality: on majority arms every auxiliary
    advice is the real mixture rescaled by a common per-threshold factor;
  * removed-mass table: the table's first and last pieces equal the
    solved minority mass at or below the lowest and the highest threshold;
  * minority cap / majority floor: the solved distribution never raises
    a minority arm above the real mixture nor lowers a majority arm
    below it, and every majority mixture mass is at least 1/(2K);
  * play-mass bounds: playing masses stay within the truncation's
    guaranteed factor of the solved distribution, and any played arm
    retains at least its solved mass;
  * majority loss domination: per round and cumulatively, the loss mass
    sitting on majority arms is at most 2K times the expected play loss.

Each round's checks are O(K) float operations on the play's K-entry
lists plus one min and one max over the removed-mass table's pieces,
of which there are at most K.  The proportionality gap between the two
sides of the rule is affine in the removed mass, so its largest size over
the whole table is reached at the table's smallest or largest value; no
threshold-by-arm matrix is built.
Floats are added one at a time from the left with ``+=``, the order of
``simplex.left_sum``; builtin ``sum`` only tells whether a NaN or an
infinity may be present.

Checks compare at tolerance 1e-9; the per-round loss check also counts
a NaN margin as a violation.  Violations are recorded, never repaired.

A round repeats the last play when its play is the last play object
seen; that one identity test decides it.
Such a play is checked once: ``check_round`` reads only the play, and
nothing writes to a play after ``advise`` returns.  A repeated play's
violations are recorded again in every round that plays it, with that
round's ``t``.  A play's record, the play as an array and the played arms
as two index lists, is built when the play is first seen; every round,
new play or repeat, reads its expected loss and its majority/minority
split from the record and the round's losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import Play

AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    t: int
    rule: str
    margin: float
    detail: str


@dataclass
class RegretReport:
    """Cumulative loss accounting for one seeded run."""

    per_expert_loss: np.ndarray
    total_play_loss: float = 0.0
    majority_loss: float = 0.0
    minority_loss: float = 0.0
    rounds: int = 0

    @classmethod
    def empty(cls, num_experts: int) -> "RegretReport":
        return cls(per_expert_loss=np.zeros(num_experts))

    @property
    def best_expert_loss(self) -> float:
        """The lowest cumulative expert loss, bit for bit ``float(per_expert_loss.min())``.

        It is read in Python from ``per_expert_loss.tolist()``, since equal
        minima have equal bits, with one exception: a zero held by more than
        one expert may be +0.0 in one and -0.0 in another, and NumPy picks
        among those in its SIMD order.  Such a zero minimum, a NaN anywhere
        (it makes the losses' sum NaN) and an empty vector are handed to
        NumPy.
        """
        values = self.per_expert_loss.tolist()
        if values and not math.isnan(sum(values)):
            best = min(values)
            if best or values.count(0.0) == 1:
                return best
        return float(self.per_expert_loss.min())

    @property
    def regret(self) -> float:
        return self.total_play_loss - self.best_expert_loss


def check_round(t: int, play: Play, gamma: float, num_arms: int) -> list[Violation]:
    """Structural checks on round ``t``'s solved and played distributions."""
    k = play.pivot
    zeta = play.zeta_sorted
    q = play.q_sorted
    p = play.p_sorted
    thresholds = play.thresholds
    majority_mass = play.majority_mass
    minority_mass = play.minority_mass
    table = play.dropped_table.values

    # A sum is finite only if every term is; an overflowing one is checked term by term.
    if not math.isfinite(sum(zeta) + sum(q) + sum(p) + majority_mass + minority_mass
                         + sum(table)) and not all(map(math.isfinite, (
                             *zeta, *q, *p, majority_mass, minority_mass, *table))):
        return [Violation(t, "non_finite_trace", math.nan,
                          "the round's mixture, solved or played masses are not all finite")]

    # The proportionality gap is affine in the removed mass, so its largest
    # size over the table sits at the table's smallest or largest value;
    # each gives the rule's two factors once per round.
    proportional = bool(len(thresholds))
    if proportional:
        least, most = min(table), max(table)
        least_grown, most_grown = majority_mass + least, majority_mass + most
        least_kept, most_kept = 1.0 - (minority_mass - least), 1.0 - (minority_mass - most)

    # The table is checked at its two ends, its first and last pieces.  Its
    # values add the minority masses smallest first, and so does this check,
    # one pass for both ends.
    table_gap = 0.0
    if proportional:
        lowest, highest = thresholds[0], thresholds[-1]
        low = high = 0.0
        for x in reversed(q[k:]):
            if x <= lowest:
                low += x
            if x <= highest:
                high += x
        table_gap = abs(table[0] - low)
        if abs(table[-1] - high) > table_gap:
            table_gap = abs(table[-1] - high)

    # One pass over the arms gathers every rule's margin.  Each is kept by
    # comparison, ``if b > a: a = b``, which is what ``a = max(a, b)`` does.
    zeta_majority = 0.0
    for z in zeta[:k]:
        zeta_majority += z
    growth = 1.0 - 2.0 * num_arms * gamma
    gap = over = drop = 0.0
    under = shrink = -math.inf
    zeta_low = math.inf
    for i, (zi, qi, pi) in enumerate(zip(zeta, q, p)):
        if i < k:
            if zi - qi > under:
                under = zi - qi
            if zi < zeta_low:
                zeta_low = zi
            if proportional:
                size = abs(least_grown * qi / majority_mass * zeta_majority - least_kept * zi)
                if size > gap:
                    gap = size
                size = abs(most_grown * qi / majority_mass * zeta_majority - most_kept * zi)
                if size > gap:
                    gap = size
        elif qi - zi > over:
            over = qi - zi
        if growth * pi - qi > shrink:
            shrink = growth * pi - qi
        if pi > 0.0 and qi - pi > drop:
            drop = qi - pi
    floor = 1.0 / (2.0 * num_arms)
    short = floor - zeta_low

    violations: list[Violation] = []
    if gap > AUDIT_TOL:
        violations.append(Violation(
            t, "threshold_advice_proportionality", gap,
            "auxiliary majority advice is not a common rescale of the mixture"))
    if table_gap > AUDIT_TOL:
        violations.append(Violation(
            t, "removed_mass_table", table_gap,
            "the removed-mass table disagrees with the solved minority masses"))
    if over > AUDIT_TOL:
        violations.append(Violation(
            t, "minority_cap", over,
            "solved mass exceeds the mixture on a minority arm"))
    if under > AUDIT_TOL:
        violations.append(Violation(
            t, "majority_floor", under,
            "solved mass fell below the mixture on a majority arm"))
    if short > AUDIT_TOL:
        violations.append(Violation(
            t, "pivot_mass_floor", short,
            f"majority mixture mass fell below 1/(2K) = {floor}"))
    if shrink > AUDIT_TOL:
        violations.append(Violation(
            t, "play_mass_upper", shrink,
            "played mass exceeds the truncation growth factor"))
    if drop > AUDIT_TOL:
        violations.append(Violation(
            t, "play_mass_support", drop,
            "a played arm lost mass relative to the solved distribution"))
    return violations


def _played_arms(play: Play) -> tuple[list[int], list[int]]:
    """The played majority arms and the played minority arms, each in sorted order."""
    k = play.pivot
    majority: list[int] = []
    minority: list[int] = []
    for i, (mass, arm) in enumerate(zip(play.p_sorted, play.perm.forward)):
        if mass > 0.0:
            (majority if i < k else minority).append(arm)
    return majority, minority


def theorem_bound_value(num_arms: int, num_experts: int, horizon: int,
                        l_star: float) -> float:
    """sqrt(K * log(E*T) * L) + K * log(E*T), the first-order regret scale."""
    width = num_arms * math.log(num_experts * horizon)
    loss = max(l_star, 0.0)
    if width * loss < math.inf:
        return math.sqrt(width * loss) + width
    # width * L overflowed; only then take the roots in turn, which can round differently
    return math.sqrt(width) * math.sqrt(loss) + width


class Auditor:
    """Streaming per-round checker and accumulator for one seeded run."""

    def __init__(self, num_arms: int, num_experts: int, gamma: float = 0.0,
                 enabled: bool = True):
        self.num_arms = num_arms
        self.gamma = gamma
        self.enabled = enabled
        self.report = RegretReport.empty(num_experts)
        self.violations: list[Violation] = []
        self.round_play_loss = 0.0
        self._play = None       # the last distinct play observed
        self._found = None      # check_round's violations for it, once checked
        self._record = None     # its play as an array and its played arms

    def observe_round(self, t: int, advices: np.ndarray, play, losses: np.ndarray) -> int:
        """Check and accumulate round ``t``; returns this round's violation count.

        ``advices`` and ``play`` are the round's advice matrix and the play
        ``advise`` returned for it.  Every round adds to the play and expert
        losses; only a ``Play`` has a pivot, so only it splits its loss into
        majority and minority parts and is checked, and any other play is a
        baseline's.  The round's expected play loss is kept as
        ``round_play_loss``, and the per-round majority loss check reads it.
        A play that is not the last play object seen gets a new record;
        every round then reads its losses through the record, and a
        repeated play reuses its check with this round's ``t``.

        A round whose losses are all +0.0 or -0.0 adds nothing to the expert
        losses.  The skip is exact on the rounds ``advise`` accepts: their
        advice rows passed the row check, so each product with a zero loss
        is a zero of either sign, and adding one changes no entry of
        ``per_expert_loss`` other than a -0.0, which that vector never
        holds: it starts at +0.0, and a float sum is -0.0 only when both
        terms are.  Advice holding a NaN or an infinity (which ``advise``
        never accepts) would have made that expert's loss NaN.
        """
        losses = np.asarray(losses, dtype=float)
        values = losses.tolist()
        report = self.report
        if play is not self._play:
            arms = _played_arms(play) if isinstance(play, Play) else ((), ())
            self._play, self._found = play, None
            self._record = (np.array(play.p_original, dtype=float), *arms)
        masses, majority_arms, minority_arms = self._record
        self.round_play_loss = float(masses.dot(losses))
        report.total_play_loss += self.round_play_loss
        if any(values):   # zero losses, of either sign, would add exact zeros
            report.per_expert_loss += advices.dot(losses)
        report.rounds += 1
        if not isinstance(play, Play):
            return 0
        majority = minority = 0.0
        for arm in majority_arms:
            majority += values[arm]
        for arm in minority_arms:
            minority += values[arm]
        report.majority_loss += majority
        report.minority_loss += minority
        if not self.enabled:
            return 0
        if self._found is None:
            self._found = check_round(t, play, self.gamma, self.num_arms)
        fresh = [Violation(t, v.rule, v.margin, v.detail) for v in self._found]
        margin = majority - 2.0 * self.num_arms * self.round_play_loss
        if not margin <= AUDIT_TOL:
            fresh.append(Violation(t, "majority_loss_round", margin,
                                   "majority loss mass exceeded 2K times the expected loss"))
        self.violations.extend(fresh)
        return len(fresh)

    def finalize(self) -> list[Violation]:
        """Run cumulative checks; returns all violations recorded for the run.

        Cumulative majority loss domination: M <= 2K * total play loss.
        """
        if self.enabled:
            margin = self.report.majority_loss - 2.0 * self.num_arms * self.report.total_play_loss
            if not margin <= AUDIT_TOL:
                self.violations.append(Violation(
                    self.report.rounds, "majority_loss_cumulative", margin,
                    "cumulative majority loss exceeded 2K times the play loss"))
        return self.violations
