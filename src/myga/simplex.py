"""Probability-simplex primitives shared by the policies.

Distributions over arms are plain float64 arrays.  Validation is a
predicate, not a wrapper type; renormalization happens only where a
distribution is constructed (``weighted_average``), never as a silent
fix-up downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9


def validate(probs: np.ndarray, tol: float = SIMPLEX_TOL) -> bool:
    """Return True if ``probs`` is a distribution: entries >= 0, sum within ``tol`` of 1."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        return False
    if not np.all(np.isfinite(probs)):
        return False
    if np.any(probs < 0.0):
        return False
    return abs(float(probs.sum()) - 1.0) <= tol


def require_distribution(probs: np.ndarray, what: str = "distribution",
                         tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Return ``probs`` as a float array, raising ValueError if it is not a distribution."""
    arr = np.asarray(probs, dtype=float)
    if not validate(arr, tol):
        raise ValueError(f"{what} is not a probability distribution: {arr!r}")
    return arr


def require_distribution_rows(matrix: np.ndarray, what: str = "distribution",
                              tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Return ``matrix`` as a float array, raising ValueError unless every row is a distribution.

    The rule is ``validate``'s, checked on the whole matrix at once: every
    entry finite and >= 0, every row sum within ``tol`` of 1 (a NaN or
    infinite entry fails one of the two).  The error names the first bad row.
    """
    arr = np.asarray(matrix, dtype=float)
    if (arr.ndim == 2 and arr.size and arr.min() >= 0.0
            and np.abs(arr.sum(axis=1) - 1.0).max() <= tol):
        return arr
    for i, row in enumerate(arr):
        if not validate(row, tol):
            raise ValueError(f"{what} row {i} is not a probability distribution: {row!r}")
    return arr


def weighted_average(advices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination of advice distributions, renormalized.

    ``advices`` has one row per expert, ``weights`` one positive entry per
    expert.  The result is renormalized so downstream code sees a clean
    distribution even after long weight decays.
    """
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


@dataclass(frozen=True, eq=False)
class ArmPermutation:
    """Bijection between original arm indices and descending-sort positions.

    ``forward[j]`` is the original arm sitting at sorted position ``j``;
    ``inverse[i]`` is the sorted position of original arm ``i``.
    """

    forward: np.ndarray
    inverse: np.ndarray

    def to_sorted(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[self.forward]

    def to_original(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[self.inverse]


def sort_descending(zeta: np.ndarray) -> tuple[np.ndarray, ArmPermutation]:
    """Sort a distribution into non-increasing order.

    Ties keep the original arm order (stable sort), so the permutation is
    deterministic.  Returns the sorted values and the permutation.
    """
    zeta = np.asarray(zeta, dtype=float)
    forward = np.argsort(-zeta, kind="stable")
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return zeta[forward], ArmPermutation(forward=forward, inverse=inverse)


def pivot_index(zeta_sorted: np.ndarray) -> int:
    """Length of the shortest prefix of a sorted distribution with mass >= 1/2.

    The comparison is an exact floating >=, no tolerance: the prefix either
    reaches one half or it does not.  Arms inside the prefix are the
    majority arms, the rest the minority.
    """
    zeta_sorted = np.asarray(zeta_sorted, dtype=float)
    if zeta_sorted.size == 0:
        raise ValueError("empty distribution has no pivot")
    if np.any(np.diff(zeta_sorted) > 0.0):
        raise ValueError("pivot_index expects a non-increasing distribution")
    prefix = np.cumsum(zeta_sorted)
    k = int(np.searchsorted(prefix, 0.5, side="left")) + 1
    return min(k, zeta_sorted.size)


def sample_index(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from ``probs`` using a single uniform ``u`` in [0, 1).

    Zero-mass arms are never selected; a uniform landing past the final
    cumulative value (floating drift) falls back to the last positive arm.
    """
    probs = np.asarray(probs, dtype=float)
    cdf = np.cumsum(probs)
    a = int(np.searchsorted(cdf, u, side="right"))
    if a >= probs.size:
        a = probs.size - 1
    while a > 0 and probs[a] == 0.0:
        a -= 1
    return a
