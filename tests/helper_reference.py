"""The round's helpers as they were written before their bodies became single loops.

Each function here is the earlier body of the package function of the
same name: totals through ``simplex.left_sum``, vectors through
``simplex.floats``, generator expressions, a placement per call to
``fixed_point._place`` and the kept weight through ``prefix``, the method
``WeightState`` once had, here read from the state's buffers.
The package's helpers must return the same floats and ints, bit for
bit, and raise the same exception with the same message, on every input.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

from myga.audit import AUDIT_TOL, Violation
from myga.fixed_point import RESIDUAL_TOL, _in_place, _place
from myga.simplex import ArmPermutation, floats, left_sum, require_distribution
from myga.truncation import DRIFT_TOL


def weighted_average(advices, weights):
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


def sort_descending(zeta):
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


def to_original(perm, values):
    values = floats(values)
    return [values[i] for i in perm.inverse]


def pivot_index(zeta_sorted):
    values = floats(zeta_sorted)
    if not values:
        raise ValueError("empty distribution has no pivot")
    if any(b - a > 0.0 for a, b in zip(values, values[1:])):
        raise ValueError("pivot_index expects a non-increasing distribution")
    k = bisect_left(list(accumulate(values)), 0.5) + 1
    return min(k, len(values))


def sample_index(probs, u):
    values = floats(probs)
    cdf = list(accumulate(values))
    if cdf and math.isnan(cdf[-1]):
        cdf = [math.inf if math.isnan(c) else c for c in cdf]
    a = bisect_right(cdf, u)
    if a >= len(values):
        a = len(values) - 1
    while a > 0 and values[a] == 0.0:
        a -= 1
    return a


def truncate(q, pivot, threshold):
    values = require_distribution(q, what="truncation input")
    size = len(values)
    if not 1 <= pivot <= size:
        raise ValueError(f"pivot {pivot} outside [1, {size}]")
    if not 0.0 <= threshold <= 0.5:
        raise ValueError(f"threshold {threshold} outside [0, 1/2]")
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


def prefix(state, n):
    """Total weight of a ``WeightState``'s first ``n`` thresholds, on the scale of its last rebase.

    One block prefix plus one in-block entry, read from the state's buffers.
    """
    block, rest = divmod(n, state.width)
    if not rest:
        return state._prefix.item(block)
    return state._prefix.item(block) + state.inner_cum.item(n - 1) * state._scale.item(block)


def split(state, n):
    """``WeightState.split`` through ``prefix``."""
    kept = prefix(state, n)
    return kept / state._norm, (state.total - kept) / state._norm


def block_masses(q, pivot):
    """The majority and minority masses ``MygaPolicy._play`` puts in a trace."""
    return left_sum(q[:pivot]), left_sum(q[pivot:])


def solve(values, pivot, weights, grid):
    """``fixed_point._solve``."""
    k = pivot
    minority = len(values) - k
    below = [0] * minority
    if not grid or minority == 0:
        q = list(values)
        return q, below, mixture_residual(q, values, k, weights, grid)

    base = float(weights.base)
    base_min = [base * z for z in values[k:]]
    kept = [0.0] * minority
    q_min = base_min
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
        denom = [1.0 - w for w in kept]
        if any(d <= 0.0 for d in denom):
            raise RuntimeError("threshold weight mass exhausted the mixture")
        q_min = [b / d for b, d in zip(base_min, denom)]
    else:
        raise RuntimeError("boundary growth failed to terminate")

    scale = (1.0 - left_sum(q_min)) / left_sum(values[:k])
    q = [z * scale for z in values[:k]] + q_min
    resid = mixture_residual(q, values, k, weights, grid)
    if not resid <= RESIDUAL_TOL:
        raise RuntimeError(f"fixed-point residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return q, below, resid


def mixture_residual(q, zeta_sorted, pivot, weights, thresholds):
    q_vals = floats(q)
    zeta = floats(zeta_sorted)
    grid = floats(thresholds)
    base = float(weights.base)
    k = pivot
    majority_mass = left_sum(q_vals[:k])
    if majority_mass <= 0.0:
        raise ValueError("majority arms carry no mass, truncation undefined")

    worst = 0.0
    if not grid:
        for x, z in zip(q_vals, zeta):
            gap = abs(x - base * z)
            if not gap <= worst:
                if gap != gap:
                    return gap
                worst = gap
        return worst

    q_min = q_vals[k:]
    dropped_weight = 0.0
    for x, z in zip(q_min, zeta[k:]):
        kept, dropped = weights.split(_place(grid, x))
        gap = abs(x - (base * z + x * kept))
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
        dropped_weight += x * dropped
    scale = (1.0 - base) + dropped_weight / majority_mass
    for x, z in zip(q_vals[:k], zeta[:k]):
        gap = abs(x - (base * z + x * scale))
        if not gap <= worst:
            if gap != gap:
                return gap
            worst = gap
    return worst


def check_round(trace, gamma, num_arms):
    k = trace.pivot
    zeta = trace.zeta_sorted
    q = trace.q_sorted
    p = trace.p_sorted
    thresholds = trace.thresholds
    majority_mass = trace.majority_mass
    minority_mass = trace.minority_mass
    table = trace.dropped_table.values

    if not all(map(math.isfinite, (*zeta, *q, *p, majority_mass, minority_mass, *table))):
        return [Violation(trace.t, "non_finite_trace", math.nan,
                          "the round's mixture, solved or played masses are not all finite")]

    extremes = (min(table), max(table)) if len(thresholds) else ()

    table_gap = 0.0
    if len(thresholds):
        lowest, highest = thresholds[0], thresholds[-1]
        low = high = 0.0
        for x in reversed(q[k:]):
            if x <= lowest:
                low += x
            if x <= highest:
                high += x
        for j, removed in ((0, low), (-1, high)):
            size = abs(table[j] - removed)
            if size > table_gap:
                table_gap = size

    zeta_majority = left_sum(zeta[:k])
    growth = 1.0 - 2.0 * num_arms * gamma
    gap = over = drop = 0.0
    under = shrink = -math.inf
    zeta_low = math.inf
    for i, (zi, qi, pi) in enumerate(zip(zeta, q, p)):
        if i < k:
            if zi - qi > under:
                under = zi - qi
            if zi < zeta_low:
                zeta_low = zi
            for d in extremes:
                size = abs((majority_mass + d) * qi / majority_mass * zeta_majority
                           - (1.0 - (minority_mass - d)) * zi)
                if size > gap:
                    gap = size
        elif qi - zi > over:
            over = qi - zi
        if growth * pi - qi > shrink:
            shrink = growth * pi - qi
        if pi > 0.0 and qi - pi > drop:
            drop = qi - pi
    floor = 1.0 / (2.0 * num_arms)
    short = floor - zeta_low

    violations = []
    if gap > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "threshold_advice_proportionality", gap,
            "auxiliary majority advice is not a common rescale of the mixture"))
    if table_gap > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "removed_mass_table", table_gap,
            "the removed-mass table disagrees with the solved minority masses"))
    if over > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "minority_cap", over,
            "solved mass exceeds the mixture on a minority arm"))
    if under > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "majority_floor", under,
            "solved mass fell below the mixture on a majority arm"))
    if short > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "pivot_mass_floor", short,
            f"majority mixture mass fell below 1/(2K) = {floor}"))
    if shrink > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "play_mass_upper", shrink,
            "played mass exceeds the truncation growth factor"))
    if drop > AUDIT_TOL:
        violations.append(Violation(
            trace.t, "play_mass_support", drop,
            "a played arm lost mass relative to the solved distribution"))
    return violations
