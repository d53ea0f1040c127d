"""The solver's test shares and the closed-form least fixed point of the one-minority-arm map.

``MixtureWeights`` stands in for the shares the policy passes
``fixed_point._solve``: the solver and the residual read them only
through ``base`` and ``split``.  ``fixed_point._solve`` grows each
minority arm from below; here the least fixed point of one arm's map is
found by enumerating the map's linear pieces instead.  Criterion 3 and
the solver tests compare the two.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class MixtureWeights:
    """Normalized weight shares: one base share plus one share per threshold.

    ``base`` is the aggregate share of all real experts; ``per_threshold``
    is aligned with the ascending threshold grid.  The tests build them
    strictly positive and summing to 1, as the policy's are.
    """

    base: float
    per_threshold: np.ndarray

    @cached_property
    def _prefix(self) -> list[float]:
        return [0.0] + np.cumsum(np.asarray(self.per_threshold, dtype=float)).tolist()

    def split(self, n: int) -> tuple[float, float]:
        """Shares of the first ``n`` thresholds (kept) and of the rest (dropped)."""
        prefix = self._prefix
        return prefix[n], prefix[-1] - prefix[n]


def two_arm_fixed_point(base_mass: float, weights: MixtureWeights,
                        thresholds: np.ndarray) -> float:
    """Closed-form least fixed point of the one-dimensional threshold map.

    Solves x = base*base_mass + x * (weight of thresholds strictly below x)
    on [0, 1/2] by enumerating the linear pieces between consecutive
    thresholds and keeping the smallest candidate consistent with its own
    piece.  This is the minority mass of the two-arm problem, and equally
    the per-arm decoupled solution for any single minority coordinate.
    """
    if not 0.0 <= base_mass <= 0.5:
        raise ValueError(f"base mass {base_mass} outside [0, 1/2]")
    grid = np.asarray(thresholds, dtype=float)
    best = None
    for j in range(grid.size + 1):
        x = weights.base * base_mass / (1.0 - weights.split(j)[0])
        if j > 0 and not x > grid[j - 1]:
            continue
        if j < grid.size and not x <= grid[j]:
            continue
        if best is None or x < best:
            best = x
    if best is None:
        raise RuntimeError("no piece of the threshold map is self-consistent")
    return float(best)
