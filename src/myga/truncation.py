"""Threshold truncation of sorted distributions.

``truncate(q, k, s)`` zeroes every minority arm (index > k in 1-based
terms) whose mass is <= s and hands the removed mass to the majority
arms (the first k) in proportion to their current masses.  Minority
arms above the threshold are left untouched.  Mass comparisons against
the threshold are exact floating comparisons: an arm sitting exactly on
the threshold is removed.

The convention s = 0 is accepted and acts as the identity, since no
positive mass can be <= 0.

``truncate`` takes and returns a list of Python floats (an array is
converted on entry), its entries added one at a time from the left
(``simplex.left_sum``), so its result equals the whole-array NumPy form
bit for bit below eight arms.  The removed-mass table over the threshold
grid is a step function with one piece more than the minority arms it
removes, never an array over the grid, and is built from the solver's
placement of each arm on the grid, with no search.
"""

from __future__ import annotations

from typing import NamedTuple

from . import simplex
from .simplex import left_sum

DRIFT_TOL = 1e-9


def _check_params(size: int, pivot: int, threshold: float) -> None:
    if not 1 <= pivot <= size:
        raise ValueError(f"pivot {pivot} outside [1, {size}]")
    if not 0.0 <= threshold <= 0.5:
        raise ValueError(f"threshold {threshold} outside [0, 1/2]")


def truncate(q, pivot: int, threshold: float) -> list[float]:
    """Apply the truncation operator to a sorted distribution.

    ``q`` must be a distribution whose first ``pivot`` entries carry
    positive total mass.  Returns a new list; the input is not modified.
    Raises RuntimeError if redistribution fails to conserve mass to within
    ``DRIFT_TOL`` (an arithmetic inconsistency, not a user error).
    """
    values = simplex.require_distribution(q, what="truncation input")
    _check_params(len(values), pivot, threshold)
    majority_mass = left_sum(values[:pivot])
    if majority_mass <= 0.0:
        raise ValueError("majority arms carry no mass, cannot redistribute")

    minority = values[pivot:]
    factor = 1.0 + left_sum(x for x in minority if x <= threshold) / majority_mass
    out = [x * factor for x in values[:pivot]] + [0.0 if x <= threshold else x
                                                  for x in minority]

    drift = abs(left_sum(out) - left_sum(values))
    if drift > DRIFT_TOL:
        raise RuntimeError(f"truncation failed to conserve mass, drift {drift:.3e}")
    return out


class StepFunction(NamedTuple):
    """A step function over the threshold grid's indices.

    Piece i holds ``values[i]`` on the indices from ``breaks[i]`` up to the
    next break (the last piece up to the grid's end).  ``breaks`` starts at
    0 and strictly increases, so every piece is non-empty and the first and
    last values are the function at the grid's two ends.  On an empty grid
    both lists are empty.
    """

    breaks: list[int]
    values: list[float]


def truncated_mass_table(minority: list[float], below: list[int],
                         num_thresholds: int) -> StepFunction:
    """Removed mass per threshold for a solved minority block, as a step function.

    ``minority`` holds the minority masses in non-increasing order and
    ``below[i]`` counts the thresholds strictly below ``minority[i]``,
    the placement ``fixed_point._solve`` returns with them.  At index j
    the function is the total minority mass <= thresholds[j].  Each arm is
    removed by every threshold from index ``below[i]`` onward, so the
    function steps up there.  Arms are added smallest first, the order of
    a prefix sum over the ascending masses.
    """
    if num_thresholds == 0:
        return StepFunction([], [])
    breaks, values = [0], [0.0]
    for mass, start in zip(reversed(minority), reversed(below)):
        if start == num_thresholds:   # above every threshold, as are the larger arms
            break
        removed = values[-1] + mass
        if start == breaks[-1]:
            values[-1] = removed
        else:
            breaks.append(start)
            values.append(removed)
    return StepFunction(breaks, values)
