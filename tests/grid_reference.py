"""Dense per-threshold forms of the auxiliary-expert bookkeeping, as references.

The package keeps the auxiliary experts' weights in blocks and the
removed-mass table and the charge as step functions over the threshold
grid.  These are the same quantities as one array entry per threshold:
cumulative losses accumulated in place, weights as ``exp`` of them, and
tables filled by slice-adds.  They differ from the package by rounding
only.
"""

import numpy as np

from fixed_point_reference import MixtureWeights
from myga.fixed_point import _solve
from myga.policy import _WEIGHT_FLOOR, MygaPolicy, Play
from myga.simplex import left_sum, pivot_index, sort_descending, weighted_average
from myga.truncation import StepFunction, truncate


def densify(step, size):
    """A step function as one entry per grid index."""
    step = StepFunction(*step)
    if size == 0:
        assert step.breaks == [] and step.values == []
        return np.zeros(0)
    assert step.breaks[0] == 0 and all(a < b for a, b in zip(step.breaks, step.breaks[1:]))
    assert step.breaks[-1] < size and len(step.values) == len(step.breaks)
    return np.repeat(np.asarray(step.values, dtype=float),
                     np.diff(step.breaks + [size]))


def truncated_mass(q, pivot, threshold):
    """Total minority mass at or below the threshold (the mass truncate removes)."""
    q = np.asarray(q, dtype=float)
    if not 1 <= pivot <= q.size:
        raise ValueError(f"pivot {pivot} outside [1, {q.size}]")
    if not 0.0 <= threshold <= 0.5:
        raise ValueError(f"threshold {threshold} outside [0, 1/2]")
    minority = q[pivot:]
    return float(minority[minority <= threshold].sum())


def dense_mass_table(minority_desc, thresholds):
    """Removed mass per threshold, one slice-add per arm, smallest arm first."""
    minority_desc = np.asarray(minority_desc, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    table = np.zeros(thresholds.size)
    first_removing = np.searchsorted(thresholds, minority_desc, side="left")
    for mass, start in zip(minority_desc[::-1].tolist(), first_removing[::-1].tolist()):
        table[start:] += mass
    return table


def zero_boundaries(below, pivot, num_thresholds):
    """Per-threshold zero boundary: pivot plus the minority arms above the threshold."""
    above = np.asarray(below)[:, None] > np.arange(num_thresholds)
    return pivot + above.sum(axis=0)


def block_losses(aux):
    """Every threshold's cumulative loss in a ``WeightState``: block offset plus own part."""
    return aux.loss + np.repeat(aux.block_loss, aux.width)[:aux.size]


def round_weights(policy):
    """The real weights and the threshold weight state a round of ``policy`` plays with."""
    policy.state.weights()
    return policy.state.real_weights, policy.state


def dense_threshold_advice(play, arm_sorted):
    """Every threshold expert's advice at the sorted arm, one entry per threshold."""
    q_at = play.q_sorted[arm_sorted]
    if arm_sorted >= play.pivot:
        return np.where(np.asarray(play.thresholds) < q_at, q_at, 0.0)
    return (q_at / play.majority_mass) * (play.majority_mass + play.dropped_table)


class DenseWeightState:
    """The real and the threshold experts' cumulative losses as two arrays, weights as ``exp``.

    ``weights`` sets ``real_weights`` and ``w_aux``, each floored on the
    lowest cumulative loss, as ``WeightState.weights`` does.  It rebases on
    every call, and ``rebases`` counts them, so no round of a ``DensePolicy``
    reuses the last one's play.
    """

    def __init__(self, num_thresholds, eta, num_experts):
        self.eta = eta
        self.real_loss = np.zeros(num_experts)
        self.aux_loss = np.zeros(num_thresholds)
        self.real_weights = np.ones(num_experts)
        self.w_aux = np.ones(num_thresholds)
        self.rebases = 0

    def weights(self):
        self.rebases += 1
        shift = float(self.real_loss.min())
        if self.aux_loss.size:
            shift = min(shift, float(self.aux_loss.min()))
        self.real_weights = np.exp(-self.eta * (self.real_loss - shift))
        np.maximum(self.real_weights, _WEIGHT_FLOOR, out=self.real_weights)
        self.w_aux = np.exp(-self.eta * (self.aux_loss - shift))
        np.maximum(self.w_aux, _WEIGHT_FLOOR, out=self.w_aux)


class DensePolicy(MygaPolicy):
    """The policy with dense auxiliary weights, a dense table and a dense charge.

    ``shares`` holds the last round's ``MixtureWeights`` for comparisons.
    """

    def __init__(self, config, sample_rng=None):
        super().__init__(config, sample_rng)
        self.state = DenseWeightState(len(self.thresholds), config.eta, config.num_experts)
        self.shares = None

    def _play(self, advices):
        w_real, state = round_weights(self)
        w_aux = state.w_aux
        zeta_original = weighted_average(advices, w_real)
        zeta_sorted, perm = sort_descending(zeta_original)
        pivot = pivot_index(zeta_sorted)
        real_total = float(w_real.sum())
        total = real_total + float(w_aux.sum())
        self.shares = MixtureWeights(base=real_total / total, per_threshold=w_aux / total)
        q, below, residual = _solve(zeta_sorted, pivot, self.shares, self.thresholds)
        p_sorted = truncate(q, pivot, self.cfg.gamma)
        return Play(
            zeta_sorted=zeta_sorted, perm=perm, pivot=pivot,
            q_sorted=q, p_sorted=p_sorted, p_original=perm.to_original(p_sorted),
            thresholds=self.thresholds,
            dropped_table=dense_mass_table(q[pivot:], self.thresholds),
            majority_mass=left_sum(q[:pivot]),
            minority_mass=left_sum(q[pivot:]),
            residual=residual, below=below, iterations=sum(below))

    def _charge(self, play, arm_original, est):
        arm_sorted = play.perm.inverse[arm_original]
        self.state.aux_loss += dense_threshold_advice(play, arm_sorted) * est
