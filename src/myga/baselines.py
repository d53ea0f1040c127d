"""Exponential-weights contrast policies.

``plain`` plays the weighted advice mixture as-is.  ``thresholded``
additionally zeroes every arm whose mixture mass is at or below gamma
and renormalizes over the survivors, falling back to the plain mixture
when that would remove everything.  Both charge experts through the
same importance-weighted estimator as the main policy, through the
same advise/update state machine and weight state, which holds the real
experts alone; neither carries auxiliary experts, so the thresholded
variant's estimates are biased on the arms it refuses to play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import simplex
from .policy import ExpertPolicy

VARIANTS = ("plain", "thresholded")


@dataclass
class Exp4Config:
    num_arms: int
    num_experts: int
    eta: float
    variant: str = "plain"
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.num_arms < 2 or self.num_experts < 1:
            raise ValueError("need at least 2 arms and 1 expert")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant {self.variant!r} not one of {VARIANTS}")
        if self.variant == "thresholded" and not 0.0 < self.gamma <= 0.5:
            raise ValueError("thresholded variant needs gamma in (0, 1/2]")


def threshold_mixture(p, gamma: float) -> list[float]:
    """Zero arms with mass <= gamma and renormalize; identity if nothing survives.

    Works on the K entries as Python floats, added from the left, so the
    result equals the whole-array form bit for bit below eight arms.
    Returns a new list.
    """
    values = simplex.floats(p)
    if not any(v > gamma for v in values):
        return list(values)
    kept = [v if v > gamma else 0.0 for v in values]
    total = simplex.left_sum(kept)
    return [v / total for v in kept]


@dataclass(slots=True)
class BaselinePlay:
    """A baseline's play: its ``p_original`` alone; nothing writes to it after ``advise``."""

    p_original: list[float]


@dataclass(slots=True)
class BaselineTrace:
    """One round of ``Exp4Policy``: its ``t``, its advice and its ``play``, shared by repeats."""

    t: int
    advices: np.ndarray
    play: BaselinePlay

    p_original = property(attrgetter("play.p_original"))


class Exp4Policy(ExpertPolicy):
    """Exponential weights over the real experts alone: the grid-free weight state."""

    _trace_type = BaselineTrace

    def _play(self, advices: np.ndarray) -> BaselinePlay:
        p = simplex.weighted_average(advices, self.state.real_weights)
        if self.cfg.variant == "thresholded":
            p = threshold_mixture(p, self.cfg.gamma)
        return BaselinePlay(p)
