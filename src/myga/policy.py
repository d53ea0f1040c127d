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
the majority side), so the per-round bookkeeping cost stays linear in
the threshold count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .fixed_point import MixtureWeights, _solve, require_grid
from .simplex import ArmPermutation, left_sum
from .truncation import truncate, truncated_mass_table

# Shifted weights are floored here so threshold shares stay strictly
# positive even when an expert's cumulative loss is hopeless.  The floor
# sits far below float64 mixture resolution, so played distributions are
# unaffected.
_WEIGHT_FLOOR = 1e-300


def schedule_parameters(num_arms: int, num_experts: int, horizon: int,
                        l_star: float, grid_denominator: int | None = None
                        ) -> tuple[float, float]:
    """Learning rate and truncation floor tuned to a cumulative-loss budget.

    eta = min(1/K, sqrt(log(E*T) / (K * max(l_star, 1)))); gamma is 2*eta
    rounded up to the threshold lattice and clamped into (0, 1/2].
    """
    if num_arms < 2 or num_experts < 1 or horizon < 1:
        raise ValueError("need at least 2 arms, 1 expert, 1 round")
    if l_star < 0:
        raise ValueError("cumulative-loss budget must be non-negative")
    if num_experts * horizon < 2:
        raise ValueError("schedule undefined for a single expert-round")
    denom = 2 * horizon if grid_denominator is None else int(grid_denominator)
    if denom < 2:
        raise ValueError("grid denominator must be at least 2")
    eta = min(1.0 / num_arms,
              math.sqrt(math.log(num_experts * horizon) / (num_arms * max(l_star, 1.0))))
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


def loss_estimator(p_sorted: np.ndarray, arm_sorted: int, observed_loss: float) -> np.ndarray:
    """The estimate as a vector: ``loss_estimate`` at the played arm, zero elsewhere."""
    est = np.zeros(len(p_sorted))
    est[arm_sorted] = loss_estimate(p_sorted, arm_sorted, observed_loss)
    return est


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
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError("gamma must lie in (0, 1/2]")
        j = round(self.gamma * self.grid_denominator)
        if abs(self.gamma - j / self.grid_denominator) > 1e-12:
            raise ValueError(
                f"gamma {self.gamma} off the 1/{self.grid_denominator} lattice")


class WeightState:
    """Cumulative estimated losses for the real and auxiliary experts.

    Weights are exponential in cumulative loss.  They are materialized
    with the running minimum subtracted (the normalized shares are exactly
    invariant to any common shift), so no overflow is possible and the
    best expert always sits at weight 1.
    """

    def __init__(self, num_experts: int, num_thresholds: int, eta: float):
        self.eta = eta
        self.real_loss = np.zeros(num_experts)
        self.aux_loss = np.zeros(num_thresholds)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        shift = float(self.real_loss.min())
        if self.aux_loss.size:
            shift = min(shift, float(self.aux_loss.min()))
        w_real = np.exp(-self.eta * (self.real_loss - shift))
        w_aux = np.exp(-self.eta * (self.aux_loss - shift))
        np.maximum(w_real, _WEIGHT_FLOOR, out=w_real)
        np.maximum(w_aux, _WEIGHT_FLOOR, out=w_aux)
        return w_real, w_aux


@dataclass
class RoundTrace:
    """Everything one round produced, for the update step and the auditor."""

    t: int
    advices: np.ndarray
    zeta_sorted: np.ndarray
    perm: ArmPermutation
    pivot: int
    q_sorted: np.ndarray
    p_sorted: np.ndarray
    p_original: np.ndarray
    thresholds: np.ndarray
    dropped_table: np.ndarray
    majority_mass: float
    minority_mass: float
    residual: float
    iterations: int
    arm_original: int | None = None
    arm_sorted: int | None = None
    est_value: float | None = None
    realized_loss: float | None = None
    real_advice_at_played: np.ndarray | None = None
    aux_advice_at_played: np.ndarray | None = None


class ExpertPolicy:
    """Single-threaded advise/update state machine over one run, shared by all policies.

    A subclass supplies ``_play`` (advice -> play distribution and a trace
    carrying ``t``, ``advices`` and ``p_original``) and ``_charge`` (the
    experts' share of the round's loss estimate).
    """

    def __init__(self, config, sample_rng=None):
        self.cfg = config
        self.rng = sample_rng if isinstance(sample_rng, np.random.Generator) \
            else np.random.default_rng(sample_rng)
        self.t = 1
        self._awaiting_update = False

    def advise(self, advices: np.ndarray):
        """Compute the play distribution for the current round's advice matrix."""
        if self._awaiting_update:
            raise RuntimeError("advise called again before update")
        advices = np.asarray(advices, dtype=float)
        if advices.shape != (self.cfg.num_experts, self.cfg.num_arms):
            raise ValueError(
                f"advice matrix {advices.shape} does not match "
                f"({self.cfg.num_experts}, {self.cfg.num_arms})")
        p_original, trace = self._play(advices)
        self._awaiting_update = True
        return p_original, trace

    def sample(self, p_original: np.ndarray) -> int:
        """Draw an arm by inverse CDF in original coordinates, one uniform."""
        return simplex.sample_index(p_original, float(self.rng.random()))

    def update(self, trace, arm_original: int, observed_loss: float) -> None:
        """Charge every expert its advice-weighted share of the loss estimate."""
        if not self._awaiting_update:
            raise RuntimeError("update called without a pending advise")
        if trace.t != self.t:
            raise ValueError(f"trace from round {trace.t} given to round {self.t}")
        est = loss_estimate(trace.p_original, arm_original, observed_loss)
        self._charge(trace, arm_original, est)
        trace.arm_original = arm_original
        trace.est_value = est
        trace.realized_loss = float(observed_loss)
        self.t += 1
        self._awaiting_update = False


class MygaPolicy(ExpertPolicy):
    """Exponential weights over the real experts plus one auxiliary expert per threshold."""

    def __init__(self, config: MygaConfig, sample_rng=None):
        super().__init__(config, sample_rng)
        self.thresholds = require_grid(
            build_threshold_grid(config.gamma, config.grid_denominator))
        self.state = WeightState(config.num_experts, self.thresholds.size, config.eta)

    def _play(self, advices: np.ndarray) -> tuple[np.ndarray, RoundTrace]:
        simplex.require_distribution_rows(advices, what="expert advice")

        w_real, w_aux = self.state.weights()
        zeta_original = simplex.weighted_average(advices, w_real)
        zeta_sorted, perm = simplex.sort_descending(zeta_original)
        pivot = simplex.pivot_index(zeta_sorted)
        real_total = float(w_real.sum())
        total = real_total + float(w_aux.sum())
        shares = MixtureWeights(base=real_total / total, per_threshold=w_aux / total)
        q, iterations, residual = _solve(zeta_sorted, pivot, shares, self.thresholds)
        p_sorted = truncate(q, pivot, self.cfg.gamma)
        p_original = perm.to_original(p_sorted)
        q_values = q.tolist()
        trace = RoundTrace(
            t=self.t,
            advices=advices,
            zeta_sorted=zeta_sorted,
            perm=perm,
            pivot=pivot,
            q_sorted=q,
            p_sorted=p_sorted,
            p_original=p_original,
            thresholds=self.thresholds,
            dropped_table=truncated_mass_table(q[pivot:], self.thresholds),
            majority_mass=left_sum(q_values[:pivot]),
            minority_mass=left_sum(q_values[pivot:]),
            residual=residual,
            iterations=iterations,
        )
        return p_original, trace

    def _charge(self, trace: RoundTrace, arm_original: int, est: float) -> None:
        arm_sorted = trace.perm.inverse.item(arm_original)
        advice_column = trace.advices[:, arm_original].copy()
        q_at = trace.q_sorted.item(arm_sorted)
        if arm_sorted >= trace.pivot:
            aux_at = np.where(self.thresholds < q_at, q_at, 0.0)
        else:
            aux_at = (q_at / trace.majority_mass) * (trace.majority_mass + trace.dropped_table)
        self.state.real_loss += advice_column * est
        self.state.aux_loss += aux_at * est
        trace.arm_sorted = arm_sorted
        trace.real_advice_at_played = advice_column
        trace.aux_advice_at_played = aux_at
