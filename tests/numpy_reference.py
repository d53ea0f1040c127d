"""Whole-array NumPy forms of the arm-sized primitives, as references.

The package works on a distribution's few entries as Python floats.
These are the same rules written as NumPy expressions over arrays; the
float path must return equal results below eight arms (NumPy then adds
left to right, as the float path does) and results within rounding
above, and must raise the same exception with the same message on every
input these reject.
"""

import numpy as np

SIMPLEX_TOL = 1e-9
DRIFT_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def validate(probs, tol=SIMPLEX_TOL):
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        return False
    if not np.all(np.isfinite(probs)):
        return False
    if np.any(probs < 0.0):
        return False
    return abs(float(probs.sum()) - 1.0) <= tol


def require_distribution(probs, what="distribution", tol=SIMPLEX_TOL):
    arr = np.asarray(probs, dtype=float)
    if not validate(arr, tol):
        raise ValueError(f"{what} is not a probability distribution: {arr!r}")
    return arr


def require_distribution_rows(matrix, what="distribution", tol=SIMPLEX_TOL):
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{what} is not a matrix of distributions: {arr!r}")
    if arr.size and arr.min() >= 0.0 and np.abs(arr.sum(axis=1) - 1.0).max() <= tol:
        return arr
    for i, row in enumerate(arr):
        if not validate(row, tol):
            raise ValueError(f"{what} row {i} is not a probability distribution: {row!r}")
    return arr


def weighted_average(advices, weights):
    advices = np.asarray(advices, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if advices.ndim != 2:
        raise ValueError("advices must be a 2-d array, one row per expert")
    if weights.ndim != 1 or weights.shape[0] != advices.shape[0]:
        raise ValueError(
            f"weight count {weights.shape} does not match advice rows {advices.shape}")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be strictly positive and finite")
    mix = weights @ advices
    total = float(mix.sum())
    if total <= 0.0:
        raise ValueError("advice mixture has no mass")
    return mix / total


def sort_descending(zeta):
    """Sorted values, forward permutation and inverse permutation."""
    zeta = np.asarray(zeta, dtype=float)
    forward = np.argsort(-zeta, kind="stable")
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return zeta[forward], forward, inverse


def pivot_index(zeta_sorted):
    zeta_sorted = np.asarray(zeta_sorted, dtype=float)
    if zeta_sorted.size == 0:
        raise ValueError("empty distribution has no pivot")
    if np.any(np.diff(zeta_sorted) > 0.0):
        raise ValueError("pivot_index expects a non-increasing distribution")
    prefix = np.cumsum(zeta_sorted)
    k = int(np.searchsorted(prefix, 0.5, side="left")) + 1
    return min(k, zeta_sorted.size)


def sample_index(probs, u):
    probs = np.asarray(probs, dtype=float)
    cdf = np.cumsum(probs)
    a = int(np.searchsorted(cdf, u, side="right"))
    if a >= probs.size:
        a = probs.size - 1
    while a > 0 and probs[a] == 0.0:
        a -= 1
    return a


def truncate(q, pivot, threshold):
    q = require_distribution(q, what="truncation input")
    if not 1 <= pivot <= q.size:
        raise ValueError(f"pivot {pivot} outside [1, {q.size}]")
    if not 0.0 <= threshold <= 0.5:
        raise ValueError(f"threshold {threshold} outside [0, 1/2]")
    majority_mass = float(q[:pivot].sum())
    if majority_mass <= 0.0:
        raise ValueError("majority arms carry no mass, cannot redistribute")
    out = q.copy()
    minority = q[pivot:]
    removed = minority <= threshold
    dropped = float(minority[removed].sum())
    out[pivot:][removed] = 0.0
    out[:pivot] = q[:pivot] * (1.0 + dropped / majority_mass)
    drift = abs(float(out.sum()) - float(q.sum()))
    if drift > DRIFT_TOL:
        raise RuntimeError(f"truncation failed to conserve mass, drift {drift:.3e}")
    return out


def mixture_residual(q, zeta_sorted, pivot, weights, thresholds):
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
    # Threshold weight is read as prefix sums of the shares, as the solver does.
    prefix = np.concatenate(([0.0], np.cumsum(w_thresh)))
    below = np.searchsorted(grid, q_min, side="left")
    kept_weight = prefix[below]
    dropped_weight = 0.0   # added left to right; builtin sum compensates from Python 3.12
    for x, b in zip(q_min.tolist(), below.tolist()):
        dropped_weight += x * float(prefix[-1] - prefix[b])
    target = np.empty_like(q)
    target[k:] = base * zeta[k:] + q_min * kept_weight
    scale = (1.0 - base) + dropped_weight / majority_mass
    target[:k] = base * zeta[:k] + q[:k] * scale
    return float(np.max(np.abs(q - target)))


def solve(zeta_sorted, pivot, weights, grid):
    """The solver on arrays: (q, thresholds strictly below each minority arm, residual).

    The mixture, pivot, shares and grid are taken as given, as ``_solve``
    takes them.
    """
    zeta = np.asarray(zeta_sorted, dtype=float)
    k = pivot
    minority = zeta.size - k
    below = [0] * minority
    if grid.size == 0 or minority == 0:
        q = zeta.copy()
        return q, below, mixture_residual(q, zeta, k, weights, grid)
    prefix = np.concatenate(([0.0], np.cumsum(np.asarray(weights.per_threshold, dtype=float))))
    base_min = float(weights.base) * zeta[k:]
    kept = np.zeros(minority)
    q_min = base_min
    for _ in range(grid.size + 1):
        reached = np.searchsorted(grid, q_min, side="left").tolist()
        if reached == below:
            break
        for i, (old, new) in enumerate(zip(below, reached)):
            if new > old:
                kept[i] = prefix[new]
        below = reached
        denom = 1.0 - kept
        if np.any(denom <= 0.0):
            raise RuntimeError("threshold weight mass exhausted the mixture")
        q_min = base_min / denom
    else:
        raise RuntimeError("boundary growth failed to terminate")
    q = np.empty(zeta.size)
    q[k:] = q_min
    q[:k] = zeta[:k] * ((1.0 - float(q_min.sum())) / float(zeta[:k].sum()))
    resid = mixture_residual(q, zeta, k, weights, grid)
    if not resid <= RESIDUAL_TOL:
        raise RuntimeError(f"fixed-point residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return q, below, resid


def threshold_mixture(p, gamma):
    p = np.asarray(p, dtype=float)
    kept = p > gamma
    if not np.any(kept):
        return p.copy()
    out = np.where(kept, p, 0.0)
    return out / out.sum()
