"""Probability-simplex primitives shared by the policies.

Distributions over arms are plain lists of Python floats, one entry per
arm.  Validation is a predicate, not a wrapper type; renormalization
happens only where a distribution is constructed (``weighted_average``),
never as a silent fix-up downstream.

A distribution has a handful of entries, and a NumPy call on a few
entries costs more in call overhead than a Python loop over them, so a
round's vectors stay lists from the mixture to the audit.  Each public
function also accepts an array, which ``floats`` converts once on entry.
NumPy is left to the (experts, arms) advice matrix and its products.
Totals are added one entry at a time from the left (``left_sum``)
and prefix sums with ``itertools.accumulate``, the order in which NumPy
reduces fewer than eight entries and in which ``cumsum`` always runs, so
results match the whole-array NumPy expressions bit for bit below eight
arms and up to rounding above.  Binary searches use ``bisect``, the
search ``np.searchsorted`` makes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

SIMPLEX_TOL = 1e-9


def floats(values) -> list[float]:
    """A vector's entries as Python floats: a list is taken as it is, anything else through NumPy."""
    return values if type(values) is list else np.asarray(values, dtype=float).tolist()


def left_sum(values) -> float:
    """Sum of floats added one at a time from the left, starting at 0.0.

    This is NumPy's order for fewer than eight entries.  Builtin ``sum``
    compensates its rounding from Python 3.12 on, so it is not used on floats.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _first_bad_row(rows: list[list[float]], tol: float) -> int:
    """Index of the first row that breaks ``validate``'s rule, or -1 if none does.

    One loop over the rows' floats, each row summed as ``left_sum`` does.
    """
    for i, row in enumerate(rows):
        total = 0.0
        for value in row:
            if not 0.0 <= value < math.inf:   # negative, infinite or NaN
                return i
            total += value
        if not abs(total - 1.0) <= tol:
            return i
    return -1


def validate(probs, tol: float = SIMPLEX_TOL) -> bool:
    """Return True if ``probs`` is a distribution: entries >= 0, sum within ``tol`` of 1."""
    if type(probs) is not list:
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            return False
        probs = probs.tolist()
    try:
        return bool(probs) and _first_bad_row([probs], tol) < 0
    except TypeError:   # a list holding lists or other non-numbers
        return False


def require_distribution(probs, what: str = "distribution") -> list[float]:
    """Return ``probs`` as a list of floats, raising ValueError if it is not a distribution."""
    if not validate(probs):
        raise ValueError(f"{what} is not a probability distribution: "
                         f"{np.asarray(probs, dtype=float)!r}")
    return floats(probs)


def require_distribution_rows(matrix: np.ndarray, what: str = "distribution") -> np.ndarray:
    """Return ``matrix`` as a float array, raising ValueError unless every row is a distribution.

    The rule is ``validate``'s, row by row.  The error names the first bad
    row.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim == 2:
        i = _first_bad_row(arr.tolist(), SIMPLEX_TOL)
        if i >= 0:
            raise ValueError(f"{what} row {i} is not a probability distribution: {arr[i]!r}")
        return arr
    for i, row in enumerate(arr):   # no row of a non-matrix is a distribution
        if not validate(row):
            raise ValueError(f"{what} row {i} is not a probability distribution: {row!r}")
    return arr


def weighted_average(advices: np.ndarray, weights: np.ndarray) -> list[float]:
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
    for w in weights.tolist():
        if not 0.0 < w < math.inf:
            raise ValueError("weights must be strictly positive and finite")
    mix = (weights @ advices).tolist()
    total = left_sum(mix)
    if total <= 0.0:
        raise ValueError("advice mixture has no mass")
    return [m / total for m in mix]


@dataclass(frozen=True, eq=False)
class ArmPermutation:
    """Bijection between original arm indices and descending-sort positions.

    ``forward[j]`` is the original arm sitting at sorted position ``j``;
    ``inverse[i]`` is the sorted position of original arm ``i``.
    """

    forward: list[int]
    inverse: list[int]

    def to_original(self, values) -> list[float]:
        values = floats(values)
        return [values[i] for i in self.inverse]


def sort_descending(zeta) -> tuple[list[float], ArmPermutation]:
    """Sort a distribution into non-increasing order.

    Ties keep the original arm order (stable sort), so the permutation is
    deterministic; NaN entries go last, in arm order, as in NumPy's sort.
    Returns the sorted values and the permutation.
    """
    values = floats(zeta)
    arms = range(len(values))
    if any(map(math.isnan, values)):
        order = sorted(arms, key=lambda i: (values[i] == values[i], values[i]), reverse=True)
    else:
        order = sorted(arms, key=values.__getitem__, reverse=True)
    inverse = [0] * len(values)
    for position, arm in enumerate(order):
        inverse[arm] = position
    return [values[i] for i in order], ArmPermutation(forward=order, inverse=inverse)


def pivot_index(zeta_sorted) -> int:
    """Length of the shortest prefix of a sorted distribution with mass >= 1/2.

    The comparison is an exact floating >=, no tolerance: the prefix either
    reaches one half or it does not.  Arms inside the prefix are the
    majority arms, the rest the minority.
    """
    values = floats(zeta_sorted)
    if not values:
        raise ValueError("empty distribution has no pivot")
    if any(b - a > 0.0 for a, b in zip(values, values[1:])):
        raise ValueError("pivot_index expects a non-increasing distribution")
    k = bisect_left(list(accumulate(values)), 0.5) + 1
    return min(k, len(values))


def sample_index(probs, u: float) -> int:
    """Inverse-CDF draw from ``probs`` using a single uniform ``u`` in [0, 1).

    Zero-mass arms are never selected; a uniform landing past the final
    cumulative value (floating drift) falls back to the last positive arm.
    """
    values = floats(probs)
    cdf = list(accumulate(values))
    if cdf and math.isnan(cdf[-1]):   # NumPy's search orders NaN above every number
        cdf = [math.inf if math.isnan(c) else c for c in cdf]
    a = bisect_right(cdf, u)
    if a >= len(values):
        a = len(values) - 1
    while a > 0 and values[a] == 0.0:
        a -= 1
    return a
