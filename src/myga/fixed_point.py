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
threshold.  The work is a binary search per minority arm and pass plus
one slice sum per newly crossed run of thresholds, so it scales with
the few minority arms, not with the grid.

The reported iteration count is the number of (minority arm, threshold)
pairs with the arm strictly above the threshold: the unit advances of
the equivalent per-threshold zero boundary, which for threshold j sits
at k plus the number of minority arms above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MixtureWeights:
    """Normalized weight shares: one base share plus one share per threshold.

    ``base`` is the aggregate share of all real experts; ``per_threshold``
    is aligned with the ascending threshold grid.  All shares are strictly
    positive and sum to 1.
    """

    base: float
    per_threshold: np.ndarray

    def require(self, num_thresholds: int, tol: float = 1e-9) -> None:
        per = np.asarray(self.per_threshold, dtype=float)
        if per.shape != (num_thresholds,):
            raise ValueError(
                f"threshold weight count {per.shape} does not match grid size {num_thresholds}")
        if self.base <= 0.0 or (per.size and per.min() <= 0.0):
            raise ValueError("mixture weight shares must be strictly positive")
        total = self.base + float(per.sum())
        if abs(total - 1.0) > tol:
            raise ValueError(f"mixture weight shares sum to {total!r}, expected 1")


def require_grid(thresholds: np.ndarray) -> np.ndarray:
    """The threshold grid as a float array: 1-d, strictly increasing, inside (0, 1/2]."""
    grid = np.asarray(thresholds, dtype=float)
    if grid.ndim != 1:
        raise ValueError("thresholds must be a 1-d array")
    if grid.size:
        if (grid[1:] <= grid[:-1]).any():
            raise ValueError("thresholds must be strictly increasing")
        if grid[0] <= 0.0 or grid[-1] > 0.5:
            raise ValueError("thresholds must lie in (0, 1/2]")
    return grid


def _require_sorted_inputs(zeta_sorted: np.ndarray, pivot: int) -> np.ndarray:
    zeta = simplex.require_distribution(zeta_sorted, what="sorted mixture")
    if np.any(zeta[1:] > zeta[:-1]):
        raise ValueError("sorted mixture must be non-increasing")
    if not 1 <= pivot <= zeta.size:
        raise ValueError(f"pivot {pivot} outside [1, {zeta.size}]")
    if float(zeta[:pivot].sum()) < 0.5:
        raise ValueError("majority prefix of the sorted mixture is lighter than 1/2")
    if pivot > 1 and float(zeta[:pivot - 1].sum()) >= 0.5:
        raise ValueError("pivot is not minimal for the sorted mixture")
    return zeta


def _solve(zeta_sorted: np.ndarray, pivot: int, weights: MixtureWeights,
           grid: np.ndarray, sweep_log: list | None = None
           ) -> tuple[np.ndarray, int, float]:
    """``solve_fixed_point`` on a grid that already passed ``require_grid``."""
    zeta = _require_sorted_inputs(zeta_sorted, pivot)
    weights.require(grid.size)
    num_arms = zeta.size
    k = pivot
    minority = num_arms - k

    if grid.size == 0 or minority == 0:
        q = zeta.copy()
        return q, 0, mixture_residual(q, zeta, k, weights, grid)

    base = float(weights.base)
    w_thresh = np.asarray(weights.per_threshold, dtype=float)
    base_min = base * zeta[k:]

    # below[i]: thresholds strictly below minority arm i, all of which keep it.
    below = [0] * minority
    kept = np.zeros(minority)
    q_min = base_min
    if sweep_log is not None:
        sweep_log.append((q_min.copy(), _boundaries(below, k, grid.size)))

    # Every arm still moving crosses a threshold per pass, so an arm moves
    # in at most |grid| passes and one more pass finds nothing to cross.
    for _ in range(grid.size + 1):
        reached = np.searchsorted(grid, q_min, side="left").tolist()
        if reached == below:
            break
        for i, (old, new) in enumerate(zip(below, reached)):
            if new > old:
                kept[i] += w_thresh[old:new].sum()
        below = reached
        denom = 1.0 - kept
        if np.any(denom <= 0.0):
            raise RuntimeError("threshold weight mass exhausted the mixture")
        q_min = base_min / denom
        if sweep_log is not None:
            sweep_log.append((q_min.copy(), _boundaries(below, k, grid.size)))
    else:
        raise RuntimeError("boundary growth failed to terminate")

    iterations = sum(below)
    if iterations > minority * grid.size:
        raise RuntimeError("unit advances exceeded the guaranteed bound")

    q = np.empty(num_arms)
    q[k:] = q_min
    majority_zeta = float(zeta[:k].sum())
    q[:k] = zeta[:k] * ((1.0 - float(q_min.sum())) / majority_zeta)
    resid = mixture_residual(q, zeta, k, weights, grid)
    if not resid <= RESIDUAL_TOL:
        raise RuntimeError(f"fixed-point residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return q, iterations, resid


def _boundaries(below: list[int], pivot: int, num_thresholds: int) -> np.ndarray:
    """Per-threshold zero boundary: pivot plus the minority arms above the threshold."""
    above = np.asarray(below)[:, None] > np.arange(num_thresholds)
    return pivot + above.sum(axis=0)


def solve_fixed_point(zeta_sorted: np.ndarray, pivot: int, weights: MixtureWeights,
                      thresholds: np.ndarray, sweep_log: list | None = None
                      ) -> tuple[np.ndarray, int]:
    """Solve q = base*zeta + sum_s w_s * truncate(q, pivot, s) in sorted coordinates.

    Returns the solved distribution and the number of unit boundary
    advances, which never exceeds (arms - pivot) * len(thresholds).
    ``sweep_log``, if given, receives one (minority masses, boundaries)
    snapshot per growth pass for diagnostic tests.  Raises RuntimeError rather
    than returning a distribution whose residual exceeds 1e-9 or is NaN.
    """
    q, iterations, _ = _solve(zeta_sorted, pivot, weights, require_grid(thresholds),
                              sweep_log)
    return q, iterations


def mixture_residual(q: np.ndarray, zeta_sorted: np.ndarray, pivot: int,
                     weights: MixtureWeights, thresholds: np.ndarray) -> float:
    """Max-norm distance between q and the truncation mixture evaluated at q."""
    q = np.asarray(q, dtype=float)
    zeta = np.asarray(zeta_sorted, dtype=float)
    grid = np.asarray(thresholds, dtype=float)
    base = float(weights.base)
    w_thresh = np.asarray(weights.per_threshold, dtype=float)
    k = pivot
    q_min = q[k:]
    majority_mass = float(q[:k].sum())
    if majority_mass <= 0.0:
        raise ValueError("majority arms carry no mass, truncation undefined")

    if grid.size == 0:
        target = base * zeta
        return float(np.max(np.abs(q - target))) if q.size else 0.0

    # Arm i is kept by the thresholds strictly below it and dropped by the
    # rest, so the majority's intake sum_j w_j * (minority mass <= grid[j])
    # regroups per arm; no arm order is assumed.
    below = np.searchsorted(grid, q_min, side="left").tolist()
    kept_weight = np.array([w_thresh[:b].sum() for b in below])
    dropped_weight = sum(x * float(w_thresh[b:].sum()) for x, b in zip(q_min.tolist(), below))

    target = np.empty_like(q)
    target[k:] = base * zeta[k:] + q_min * kept_weight
    scale = (1.0 - base) + dropped_weight / majority_mass
    target[:k] = base * zeta[:k] + q[:k] * scale
    return float(np.max(np.abs(q - target)))


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
    w_thresh = np.asarray(weights.per_threshold, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(w_thresh)))
    best = None
    for j in range(grid.size + 1):
        x = weights.base * base_mass / (1.0 - cum[j])
        if j > 0 and not x > grid[j - 1]:
            continue
        if j < grid.size and not x <= grid[j]:
            continue
        if best is None or x < best:
            best = x
    if best is None:
        raise RuntimeError("no piece of the threshold map is self-consistent")
    return float(best)
