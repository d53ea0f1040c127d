"""Self-consistent mixture of truncations.

Each auxiliary expert is defined by a threshold s: its advice is the
s-truncation of the final play distribution q itself.  With a base
weight on the real-expert mixture zeta and one weight per threshold,
q must therefore solve

    q = base * zeta + sum_s w_s * truncate(q, k, s)

in sorted coordinates with pivot k.  On the minority side the equation
decouples per arm: q(i) satisfies q(i) = base*zeta(i) + q(i) * (total
weight of thresholds strictly below q(i)), a one-dimensional piecewise
linear fixed point.

``solve_fixed_point`` grows each minority arm from below.  It starts
every arm at base*zeta(i), with every threshold truncating it, and in
each pass searches the arm's mass into the ascending grid: the
thresholds strictly below the mass keep the arm, so the arm's kept
weight grows by the weights of the thresholds it newly crossed and its
mass becomes base*zeta(i) / (1 - kept weight).  Masses only grow, no
pass overshoots (an arm on a threshold stays truncated by it), and
growth stops at the least fixed point once no arm crosses another
threshold.  A pass first compares each mass with the two thresholds
around it, grid[b-1] < mass <= grid[b], and searches the grid only when
some arm has left that interval, so the pass that confirms the fixed
point makes no search.  The work is a binary search per minority arm
and moving pass plus one prefix-sum read of threshold weight per arm
that moved, so it scales with the few minority arms, not with the grid.

The reported iteration count is the number of (minority arm, threshold)
pairs with the arm strictly above the threshold: the unit advances of
the equivalent per-threshold zero boundary, which for threshold j sits
at k plus the number of minority arms above it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import simplex
from .simplex import floats, left_sum

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MixtureWeights:
    """Normalized weight shares: one base share plus one share per threshold.

    ``base`` is the aggregate share of all real experts; ``per_threshold``
    is aligned with the ascending threshold grid.  All shares are strictly
    positive and sum to 1.

    The solver and the residual read threshold weight only through
    ``base`` and ``split``, the prefix-sum interface; ``MygaPolicy`` passes
    them its ``policy.WeightState``, which has the same two.
    """

    base: float
    per_threshold: np.ndarray

    def require(self, num_thresholds: int) -> None:
        per = np.asarray(self.per_threshold, dtype=float)
        if per.shape != (num_thresholds,):
            raise ValueError(
                f"threshold weight count {per.shape} does not match grid size {num_thresholds}")
        if not (math.isfinite(self.base) and np.isfinite(per).all()):
            raise ValueError("mixture weight shares must be finite")
        if self.base <= 0.0 or (per.size and per.min() <= 0.0):
            raise ValueError("mixture weight shares must be strictly positive")
        total = self.base + float(per.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weight shares sum to {total!r}, expected 1")

    @cached_property
    def _prefix(self) -> list[float]:
        return [0.0] + np.cumsum(np.asarray(self.per_threshold, dtype=float)).tolist()

    def split(self, n: int) -> tuple[float, float]:
        """Shares of the first ``n`` thresholds (kept) and of the rest (dropped)."""
        prefix = self._prefix
        return prefix[n], prefix[-1] - prefix[n]


def require_grid(thresholds: np.ndarray) -> np.ndarray:
    """The threshold grid as a float array: 1-d, finite, strictly increasing, inside (0, 1/2]."""
    grid = np.asarray(thresholds, dtype=float)
    if grid.ndim != 1:
        raise ValueError("thresholds must be a 1-d array")
    if not np.isfinite(grid).all():
        raise ValueError("thresholds must be finite")
    if grid.size:
        if (grid[1:] <= grid[:-1]).any():
            raise ValueError("thresholds must be strictly increasing")
        if grid[0] <= 0.0 or grid[-1] > 0.5:
            raise ValueError("thresholds must lie in (0, 1/2]")
    return grid


def _require_sorted_inputs(zeta_sorted, pivot: int) -> list[float]:
    """The sorted mixture as a list of floats, once its contract holds with the pivot."""
    values = simplex.require_distribution(zeta_sorted, what="sorted mixture")
    if any(b > a for a, b in zip(values, values[1:])):
        raise ValueError("sorted mixture must be non-increasing")
    if not 1 <= pivot <= len(values):
        raise ValueError(f"pivot {pivot} outside [1, {len(values)}]")
    if left_sum(values[:pivot]) < 0.5:
        raise ValueError("majority prefix of the sorted mixture is lighter than 1/2")
    if pivot > 1 and left_sum(values[:pivot - 1]) >= 0.5:
        raise ValueError("pivot is not minimal for the sorted mixture")
    return values


def _place(grid: list[float], mass: float) -> int:
    """The number of thresholds strictly below ``mass``, ``np.searchsorted(grid, mass)``.

    NumPy orders NaN above every number, so a NaN mass is above every
    threshold; ``bisect_left`` alone would put it below the first.
    """
    return bisect_left(grid, mass) if mass == mass else len(grid)


def _solve(values: list[float], pivot: int, weights: MixtureWeights,
           grid: list[float]) -> tuple[list[float], list[int], float]:
    """``solve_fixed_point`` without its input checks, returning the placement and residual.

    ``below[i]`` is the number of thresholds strictly below minority arm
    i's solved mass, ``np.searchsorted(grid, mass, side="left")``: the last
    pass's search or in-place check has just established it, and the
    round's threshold advice and removed-mass table are read from it.
    It trusts its inputs: ``solve_fixed_point`` checks a caller's, and
    ``MygaPolicy`` passes a mixture, pivot, shares and grid it has just
    built.  The mixture and the grid are lists of floats, the grid
    searched with ``bisect`` once per arm and pass, and an arm's kept
    weight is one prefix read.
    """
    k = pivot
    minority = len(values) - k

    # below[i]: thresholds strictly below minority arm i, all of which keep it.
    below = [0] * minority
    if not grid or minority == 0:
        q = list(values)
        return q, below, mixture_residual(q, values, k, weights, grid)

    base = float(weights.base)
    base_min = [base * z for z in values[k:]]
    kept = [0.0] * minority
    q_min = base_min

    # Every arm still moving crosses a threshold per pass, so an arm moves
    # in at most |grid| passes and one more pass finds nothing to cross.
    # A pass searches only if some arm has left the interval its last
    # search put it in.
    for _ in range(len(grid) + 1):
        if _in_place(grid, below, q_min):
            break
        reached = [_place(grid, x) for x in q_min]
        if reached == below:
            break
        for i, (old, new) in enumerate(zip(below, reached)):
            if new > old:
                kept[i] = weights.split(new)[0]
        below = reached
        q_min = []
        for b, w in zip(base_min, kept):
            d = 1.0 - w
            if d <= 0.0:
                raise RuntimeError("threshold weight mass exhausted the mixture")
            q_min.append(b / d)
    else:
        raise RuntimeError("boundary growth failed to terminate")

    minority_mass = majority_mass = 0.0
    for x in q_min:
        minority_mass += x
    for z in values[:k]:
        majority_mass += z
    scale = (1.0 - minority_mass) / majority_mass
    q = [z * scale for z in values[:k]] + q_min
    resid = mixture_residual(q, values, k, weights, grid)
    if not resid <= RESIDUAL_TOL:
        raise RuntimeError(f"fixed-point residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return q, below, resid


def _in_place(grid: list[float], below: list[int], masses: list[float]) -> bool:
    """Whether each mass lies in (grid[b-1], grid[b]] for its count b of thresholds below.

    That is where ``_place`` puts it, so a search would return ``below``
    unchanged.  A mass on a threshold is in the interval that threshold
    closes, and a NaN mass is in none.  ``_solve`` calls it once at the
    start of every growth pass.
    """
    last = len(grid)
    for b, x in zip(below, masses):
        if (b and not grid[b - 1] < x) or (b < last and not x <= grid[b]):
            return False
    return True


def solve_fixed_point(zeta_sorted: np.ndarray, pivot: int, weights: MixtureWeights,
                      thresholds: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve q = base*zeta + sum_s w_s * truncate(q, pivot, s) in sorted coordinates.

    Returns the solved distribution and the number of unit boundary
    advances, which never exceeds (arms - pivot) * len(thresholds).
    Raises ValueError on a grid, mixture, pivot or shares that break their
    contracts, checked in that order before any is used, and RuntimeError
    rather than returning a distribution whose residual exceeds 1e-9 or is
    NaN.
    """
    grid = require_grid(thresholds)
    zeta = _require_sorted_inputs(zeta_sorted, pivot)
    weights.require(grid.size)
    q, below, _ = _solve(zeta, pivot, weights, grid.tolist())
    return np.array(q), sum(below)


def mixture_residual(q, zeta_sorted, pivot: int, weights: MixtureWeights,
                     thresholds) -> float:
    """Max-norm distance between q and the truncation mixture evaluated at q.

    A NaN anywhere in the comparison makes the distance NaN.
    """
    q_vals = q if type(q) is list else floats(q)
    zeta = zeta_sorted if type(zeta_sorted) is list else floats(zeta_sorted)
    grid = thresholds if type(thresholds) is list else floats(thresholds)
    base = float(weights.base)
    k = pivot
    majority = q_vals[:k]
    majority_mass = 0.0
    for x in majority:
        majority_mass += x
    if majority_mass <= 0.0:
        raise ValueError("majority arms carry no mass, truncation undefined")

    # Each gap is compared as it is made: a NaN gap is the answer at once,
    # and otherwise the largest gap is.
    worst = 0.0
    if not grid:
        for x, z in zip(q_vals, zeta):
            gap = abs(x - base * z)
            if not gap <= worst:
                if gap != gap:
                    return gap
                worst = gap
        return worst

    # Arm i is kept by the thresholds strictly below it and dropped by the
    # rest, so the majority's intake sum_j w_j * (minority mass <= grid[j])
    # regroups per arm, added left to right; no arm order is assumed.
    dropped_weight = 0.0
    for x, z in zip(q_vals[k:], zeta[k:]):
        kept, dropped = weights.split(_place(grid, x))
        gap = abs(x - (base * z + x * kept))
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
        dropped_weight += x * dropped
    scale = (1.0 - base) + dropped_weight / majority_mass
    for x, z in zip(majority, zeta[:k]):
        gap = abs(x - (base * z + x * scale))
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
    return worst

