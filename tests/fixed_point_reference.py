"""The closed-form least fixed point of the one-minority-arm threshold map, as a reference.

``fixed_point._solve`` grows each minority arm from below; here the least
fixed point of one arm's map is found by enumerating the map's linear
pieces instead.  Criterion 3 and the solver tests compare the two.
"""

import numpy as np

from myga.fixed_point import MixtureWeights


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
    weights.require(grid.size)
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
