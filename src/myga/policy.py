"""Truncation-augmented exponential-weights contextual bandit policy.

Per round the policy mixes the real experts' advice by their current
weights, sorts it, places the majority/minority pivot, solves the
self-consistent truncation mixture, and plays the gamma-truncation of
the solved distribution.  Every expert, real or threshold-auxiliary, is
charged the inner product of its advice with the importance-weighted
loss estimate; weights are exponential in cumulative estimated loss.

Auxiliary experts advise truncations of the solved distribution, so
their advice lives in the round's sorted coordinates.  Their charge
needs only the advice value at the played arm, which has a closed form
(zero or the arm's own mass on the minority side, a common rescale on
the majority side) and is a step function over the threshold grid with
at most one piece more than the minority arms.  Their weights live in
``WeightState``, about sqrt(G) blocks of about sqrt(G) thresholds, so a
round never touches all G thresholds: it reads a few prefix sums and
charges a few ranges.  The same object holds the real experts' losses,
rebases every weight in one pass and hands the solver the round's
mixture shares.

A round's arm vectors are lists of Python floats and the threshold grid
is one list, built once per policy; NumPy is left to the advice matrix,
the weights' ``exp``, the blocks and one draw of sample uniforms per
``_UNIFORM_BLOCK`` rounds.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .fixed_point import _solve
from .simplex import ArmPermutation
from .truncation import StepFunction, truncate, truncated_mass_table

# Shifted real-expert weights are floored here so the real mixture stays
# defined (``weighted_average`` takes strictly positive weights) even when
# an expert's cumulative loss is hopeless.  The floor sits far below
# float64 mixture resolution, so played distributions are unaffected.
# Auxiliary weights need no floor: they enter a round only through prefix
# sums divided by a total of at least 1 (the best expert's weight), where a
# weight below the floor and a weight of 0 differ by less than 1e-300.
_WEIGHT_FLOOR = 1e-300

# ``sample`` draws its uniforms this many at a time.
_UNIFORM_BLOCK = 1024


def schedule_parameters(num_arms: int, num_experts: int, horizon: int,
                        l_star: float, grid_denominator: int | None = None
                        ) -> tuple[float, float]:
    """Learning rate and truncation floor tuned to a cumulative-loss budget.

    eta = min(1/K, sqrt(log(E*T) / (K * max(l_star, 1)))); gamma is 2*eta
    rounded up to the threshold lattice and clamped into (0, 1/2].
    """
    if num_arms < 2 or num_experts < 1 or horizon < 1:
        raise ValueError("need at least 2 arms, 1 expert, 1 round")
    if not 0.0 <= l_star < math.inf:
        raise ValueError("cumulative-loss budget must be non-negative")
    if num_experts * horizon < 2:
        raise ValueError("schedule undefined for a single expert-round")
    denom = 2 * horizon if grid_denominator is None else int(grid_denominator)
    if denom < 2:
        raise ValueError("grid denominator must be at least 2")
    budget = num_arms * max(l_star, 1.0)
    if budget < math.inf:
        rate = math.log(num_experts * horizon) / budget
    else:   # K * L overflowed; only then divide in turn, which can round differently
        rate = math.log(num_experts * horizon) / num_arms / max(l_star, 1.0)
    eta = min(1.0 / num_arms, math.sqrt(rate))
    step = max(1, math.ceil(2.0 * eta * denom))
    step = min(step, denom // 2)
    return eta, step / denom


def build_threshold_grid(gamma: float, grid_denominator: int) -> np.ndarray:
    """Ascending lattice multiples of 1/grid_denominator inside (gamma, 1/2]."""
    denom = int(grid_denominator)
    if denom < 2:
        raise ValueError("grid denominator must be at least 2")
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"gamma {gamma} outside (0, 1/2]")
    j_gamma = round(gamma * denom)
    if abs(gamma - j_gamma / denom) > 1e-12:
        raise ValueError(f"gamma {gamma} is not a multiple of 1/{denom}")
    j_half = denom // 2
    return np.arange(j_gamma + 1, j_half + 1, dtype=float) / denom


def loss_estimate(probs: np.ndarray, arm: int, observed_loss: float) -> float:
    """Importance-weighted loss estimate at the played arm: observed_loss / probs[arm]."""
    if not 0 <= arm < len(probs):
        raise ValueError(f"arm {arm} outside [0, {len(probs)})")
    if not 0.0 <= observed_loss <= 1.0:
        raise ValueError(f"observed loss {observed_loss} outside [0, 1]")
    prob = float(probs[arm])
    if prob <= 0.0:
        raise RuntimeError("played an arm the policy assigned zero probability")
    return observed_loss / prob


@dataclass
class MygaConfig:
    num_arms: int
    num_experts: int
    horizon: int
    eta: float
    gamma: float
    grid_denominator: int | None = None

    def __post_init__(self) -> None:
        if self.num_arms < 2:
            raise ValueError("need at least 2 arms")
        if self.num_experts < 1:
            raise ValueError("need at least 1 expert")
        if self.horizon < 1:
            raise ValueError("need at least 1 round")
        if self.grid_denominator is None:
            self.grid_denominator = 2 * self.horizon
        if self.grid_denominator < 2:
            raise ValueError("grid denominator must be at least 2")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive")
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError("gamma must lie in (0, 1/2]")
        j = round(self.gamma * self.grid_denominator)
        if abs(self.gamma - j / self.grid_denominator) > 1e-12:
            raise ValueError(
                f"gamma {self.gamma} off the 1/{self.grid_denominator} lattice")


class WeightState:
    """Every expert's weight: the real experts' and the threshold experts', in one rebase.

    The threshold experts are kept in blocks of ``width`` = ceil(sqrt(G))
    thresholds.  Threshold j's cumulative loss is its block's offset plus
    its own part, ``block_loss[j // width] + loss[j]``.  Inside a block the
    weights are kept relative to the block's lowest own part
    (``block_base``), as the running sum ``inner_cum``.

    ``lead`` holds the E real experts' cumulative losses (``real_loss``,
    a view) and then each block's lead, its offset plus its base.
    ``weights`` rebases them all on the lowest, exp(-eta * (lead - shift)),
    floors the real part at ``_WEIGHT_FLOOR`` (``real_weights``), and sums
    the scaled blocks into the block prefix sums.  It rebases only when a
    cumulative loss has changed since the last rebase: ``charge`` marks the
    threshold part, and the real losses are compared, bit for bit, with
    those the last rebase read, so a write through ``real_loss`` is seen
    too.  Otherwise the last rebase's numbers are the ones it would compute.
    ``rebases`` counts the rebases run: while it stands, so does every
    number a round's play reads from the state.

    A charge adds its cost to the offset of every block a piece covers
    whole and to the own parts of the few blocks it covers in part, which
    are then recomputed from their losses: every weight is exp of a
    cumulative loss, never a running product of factors.  A prefix sum is
    one block prefix plus one in-block entry, and the total is the last
    block prefix.  Without thresholds the state is the real experts alone.

    After ``weights`` the state is also the round's mixture shares for the
    solver: the real experts' ``base`` share and ``split``, the kept and
    dropped threshold shares of a prefix of the grid.  The shares are
    exactly invariant to the common shift.

    ``copy.deepcopy`` gives the copy buffers of its own and views of them.
    """

    def __init__(self, size: int, eta: float, num_experts: int):
        self.size = size
        self.eta = eta
        self.width = math.isqrt(size - 1) + 1 if size else 1
        count = -(-size // self.width)
        self.loss = np.zeros(size)
        self.inner_cum = np.empty(size)
        self.block_loss = np.zeros(count)
        self.block_base = np.zeros(count)
        self.block_inner = np.empty(count)
        self.lead = np.zeros(num_experts + count)
        self._weight = np.empty(num_experts + count)
        self._scaled = np.empty(count)
        self._prefix = np.zeros(count + 1)
        self._view(num_experts)
        for block in range(count):
            self._refresh(block)
        self.total = 0.0
        self._norm = 1.0
        self.base = 1.0
        self._shift = 0.0
        self._rebased_real = None     # the real losses' bytes at the last rebase
        self._threshold_changed = True
        self.rebases = 0

    def _view(self, num_experts: int) -> None:
        """Point the real and block views at ``lead``, the weights and the prefix buffer."""
        self.real_loss = self.lead[:num_experts]
        self._block_lead = self.lead[num_experts:]
        self.real_weights = self._weight[:num_experts]
        self._scale = self._weight[num_experts:]
        self._block_prefix = self._prefix[1:]

    def __deepcopy__(self, memo) -> WeightState:
        clone = copy.copy(self)
        memo[id(self)] = clone
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray) and value.base is None:
                setattr(clone, name, value.copy())
        clone._view(self.real_loss.size)
        return clone

    def _refresh(self, block: int) -> None:
        lo = block * self.width
        hi = min(lo + self.width, self.size)
        own = self.loss[lo:hi]
        base = float(own.min())
        np.add.accumulate(np.exp((base - own) * self.eta), out=self.inner_cum[lo:hi])
        self.block_base[block] = base
        self.block_inner[block] = self.inner_cum[hi - 1]

    def weights(self) -> float:
        """Rebase every weight on the lowest cumulative loss, sum the blocks and set the shares.

        The best expert sits at weight 1, so no weight overflows; returns
        the shift.  The real experts' weights are then ``real_weights``.
        When no cumulative loss has changed since the last rebase, that
        rebase stands: it would compute the same numbers again.
        """
        real = self.real_loss.tobytes()
        if self._threshold_changed or real != self._rebased_real:
            self._shift = self._rebase()
            self._rebased_real = real
            self._threshold_changed = False
            self.rebases += 1
        return self._shift

    def _rebase(self) -> float:
        weight = self._weight
        shift = float(np.minimum.reduce(self.lead))
        np.subtract(self.lead, shift, out=weight)
        np.multiply(weight, -self.eta, out=weight)
        np.exp(weight, out=weight)
        np.maximum(self.real_weights, _WEIGHT_FLOOR, out=self.real_weights)
        if self._scaled.size:
            np.multiply(self._scale, self.block_inner, out=self._scaled)
            np.add.accumulate(self._scaled, out=self._block_prefix)
            self.total = self._prefix.item(-1)
        real_total = float(np.add.reduce(self.real_weights))
        self._norm = real_total + self.total
        self.base = real_total / self._norm
        return shift

    def split(self, n: int) -> tuple[float, float]:
        """Shares of the first ``n`` thresholds (kept) and of the rest (dropped).

        The kept weight is one block prefix plus one in-block entry, on the
        scale of the last ``weights``.
        """
        block, rest = divmod(n, self.width)
        kept = self._prefix.item(block)
        if rest:
            kept += self.inner_cum.item(n - 1) * self._scale.item(block)
        return kept / self._norm, (self.total - kept) / self._norm

    def charge(self, costs: StepFunction) -> None:
        """Add ``costs.values[i]`` to the cumulative loss of every threshold in piece i."""
        width, count = self.width, self.block_loss.size
        touched = set()
        charged = False
        for lo, hi, cost in zip(costs.breaks, [*costs.breaks[1:], self.size], costs.values):
            if cost == 0.0:
                continue
            charged = True
            first = -(-lo // width)                 # blocks [first, last) lie inside the piece
            last = count if hi == self.size else hi // width
            if first > last:                        # the piece sits inside one block
                self.loss[lo:hi] += cost
                touched.add(last)
                continue
            if first < last:
                self.block_loss[first:last] += cost
            if lo < first * width:
                self.loss[lo:first * width] += cost
                touched.add(first - 1)
            if last * width < hi:
                self.loss[last * width:hi] += cost
                touched.add(last)
        for block in touched:
            self._refresh(block)
        if charged:   # a block's lead is its offset plus its base, as one sum
            np.add(self.block_loss, self.block_base, out=self._block_lead)
            self._threshold_changed = True


@dataclass(slots=True)
class Play:
    """One distinct play: what ``MygaPolicy._play`` solved, the round's record.

    ``advise`` returns it, ``update`` charges it and the auditor checks it.
    The arm vectors, ``zeta_sorted``, ``q_sorted``, ``p_sorted`` and
    ``p_original``, are lists of floats and ``perm`` holds two lists of
    ints.  ``thresholds`` is the policy's grid list, shared by every play.
    ``below[i]`` is the number of thresholds strictly below the solved mass
    of minority arm ``pivot + i``, and ``iterations`` is their sum.  Output
    only: nothing writes to a play after ``advise`` returns, so every round
    that repeats it returns the same object.
    """

    zeta_sorted: list[float]
    perm: ArmPermutation
    pivot: int
    q_sorted: list[float]
    p_sorted: list[float]
    p_original: list[float]
    thresholds: list[float]
    dropped_table: StepFunction
    majority_mass: float
    minority_mass: float
    residual: float
    below: list[int]
    iterations: int


def threshold_advice_at(play: Play, arm_sorted: int) -> StepFunction:
    """Every threshold expert's advice at the sorted arm, a step function over the grid.

    On the minority side the thresholds strictly below the arm's mass keep
    it and the rest remove it; on the majority side every threshold
    rescales it by (majority + removed) / majority.
    """
    size = len(play.thresholds)
    q_at = play.q_sorted[arm_sorted]
    if arm_sorted < play.pivot:
        majority = play.majority_mass
        breaks, dropped = play.dropped_table
        return StepFunction(breaks, [(q_at / majority) * (majority + d) for d in dropped])
    kept = play.below[arm_sorted - play.pivot]
    if 0 < kept < size:
        return StepFunction([0, kept], [q_at, 0.0])
    if size:
        return StepFunction([0], [q_at if kept else 0.0])
    return StepFunction([], [])


class ExpertPolicy:
    """Single-threaded advise/update state machine over one run, shared by all policies.

    It owns the ``WeightState`` of every expert, over ``num_thresholds``
    threshold experts (none by default), and charges the real experts;
    ``real_loss`` is the state's view of their cumulative estimated losses.
    A subclass supplies ``_play`` (advice and rebased weights -> the
    round's play, which carries ``p_original``; it reads only the state a
    rebase sets, the advice and the policy's constants) and, if it has
    experts beyond the real ones, a ``_charge`` for their share of the
    round's loss estimate.  Between ``advise`` and ``update`` the round's
    advice matrix and play wait in ``_pending``.
    """

    def __init__(self, config, sample_rng=None, num_thresholds: int = 0):
        self.cfg = config
        self.rng = sample_rng if isinstance(sample_rng, np.random.Generator) \
            else np.random.default_rng(sample_rng)
        self.t = 1
        self._pending = None        # (advices, play) of the round awaiting its update
        self.state = WeightState(num_thresholds, config.eta, config.num_experts)
        self._last_key = None       # (rebases, advice bytes) of the last round played
        self._last_play = None      # and the play ``_play`` returned for it
        self._uniforms = []         # the block's unused uniforms, next one last
        self._drawn = None          # the last distribution ``sample`` drew from
        self._cdf = None            # and its ``simplex.cumulative``

    @property
    def real_loss(self) -> np.ndarray:
        return self.state.real_loss

    def _charge(self, play, arm_original: int, est: float) -> None:
        """Charge the experts beyond the real ones; a policy of real experts alone has none."""

    def advise(self, advices: np.ndarray, *, _checked: bool = False):
        """Check the round's advice matrix, every row a distribution; return ``(p_original, play)``.

        ``_checked`` is internal, not for library callers: ``cli.execute``
        passes True for the rows ``environments.generate`` returns, which
        were checked with the same rule where they were made.  The row
        check is then skipped; the shape check and the state guards still
        run.

        A round whose weights (no rebase since the last round) and advice
        bytes are the last round's returns the last round's ``Play``
        object: ``_play`` would compute the same floats from the same
        inputs, and advice bytes that passed the row check pass it again.
        Only a round whose check and play both returned is kept.  The
        returned distribution is the play's ``p_original``, so callers read
        it and the play and write nothing to either.
        """
        if self._pending is not None:
            raise RuntimeError("advise called again before update")
        advices = np.asarray(advices, dtype=float)
        if advices.shape != (self.cfg.num_experts, self.cfg.num_arms):
            raise ValueError(
                f"advice matrix {advices.shape} does not match "
                f"({self.cfg.num_experts}, {self.cfg.num_arms})")
        state = self.state
        state.weights()
        key = (state.rebases, advices.tobytes())
        if key != self._last_key:
            if not _checked:
                simplex.require_distribution_rows(advices, what="expert advice")
            self._last_play = self._play(advices)
            self._last_key = key
        play = self._last_play
        self._pending = advices, play
        return play.p_original, play

    def sample(self, p_original: list[float]) -> int:
        """Draw an arm by inverse CDF in original coordinates, one uniform.

        The uniforms are the sample generator's ``random()`` stream, drawn
        ``_UNIFORM_BLOCK`` at a time: the same values, in the same order, as
        one ``random()`` call per round.  The prefix sums of the last
        distribution drawn from are kept, keyed by the list's identity: a
        round that repeats the play returns the same list, which nothing
        writes to.  ``copy.deepcopy`` copies the block's unused part and the
        prefix sums with the generator, so a copy samples on as the
        original does.
        """
        if not self._uniforms:
            self._uniforms = self.rng.random(_UNIFORM_BLOCK).tolist()[::-1]
        if p_original is not self._drawn:
            self._drawn, self._cdf = p_original, simplex.cumulative(p_original)
        return simplex.sample_index(p_original, self._uniforms.pop(), self._cdf)

    def update(self, arm_original: int, observed_loss: float) -> None:
        """Charge every expert its advice-weighted share of the pending round's loss estimate."""
        if self._pending is None:
            raise RuntimeError("update called without a pending advise")
        advices, play = self._pending
        est = loss_estimate(play.p_original, arm_original, observed_loss)
        if est:   # a zero estimate would add exact zeros to every cumulative loss
            self.state.real_loss += advices[:, arm_original] * est
            self._charge(play, arm_original, est)
        self.t += 1
        self._pending = None


class MygaPolicy(ExpertPolicy):
    """Exponential weights over the real experts plus one auxiliary expert per threshold."""

    def __init__(self, config: MygaConfig, sample_rng=None):
        grid = build_threshold_grid(config.gamma, config.grid_denominator).tolist()
        super().__init__(config, sample_rng, len(grid))
        self.thresholds = grid

    def _play(self, advices: np.ndarray) -> Play:
        state = self.state
        w_real = state.real_weights
        zeta_original = simplex.weighted_average(advices, w_real)
        zeta_sorted, perm = simplex.sort_descending(zeta_original)
        pivot = simplex.pivot_index(zeta_sorted)
        q, below, residual = _solve(zeta_sorted, pivot, state, self.thresholds)
        p_sorted = truncate(q, pivot, self.cfg.gamma)
        majority_mass = minority_mass = 0.0   # each block added from the left
        for i, x in enumerate(q):
            if i < pivot:
                majority_mass += x
            else:
                minority_mass += x
        table = truncated_mass_table(q[pivot:], below, len(self.thresholds))
        # In field order: keywords cost about 0.5 µs more per play (timeit, Python 3.11).
        return Play(zeta_sorted, perm, pivot, q, p_sorted, perm.to_original(p_sorted),
                    self.thresholds, table, majority_mass, minority_mass, residual,
                    below, sum(below))

    def _charge(self, play: Play, arm_original: int, est: float) -> None:
        aux_at = threshold_advice_at(play, play.perm.inverse[arm_original])
        self.state.charge(StepFunction(aux_at.breaks, [a * est for a in aux_at.values]))
