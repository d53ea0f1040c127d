"""The arm-sized float path against its whole-array NumPy references.

Below eight arms every result must be equal, bit for bit; from eight arms
on NumPy sums pairwise, so results may differ by rounding, at most 1e-15.
On spoiled inputs both must raise the same exception with the same message.
"""

import math

import numpy as np
import pytest

import numpy_reference as ref
from myga.fixed_point import MixtureWeights, _solve, mixture_residual, solve_fixed_point
from myga.policy import RoundTrace, threshold_advice_at
from myga.simplex import (ArmPermutation, pivot_index, require_distribution_rows,
                          sample_index, sort_descending, validate, weighted_average)
from myga.truncation import StepFunction, truncate, truncated_mass_table

ARM_COUNTS = range(2, 13)
ROUNDING = 1e-15


def outcome(fn, *args):
    """("ok", result) or (exception type, message) for ValueError and RuntimeError."""
    try:
        return "ok", fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same(num_arms, got, want):
    """Equal below eight arms, within rounding from eight on; exceptions always equal."""
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    got_parts = got[1] if isinstance(got[1], tuple) else (got[1],)
    want_parts = want[1] if isinstance(want[1], tuple) else (want[1],)
    assert len(got_parts) == len(want_parts)
    for mine, theirs in zip(got_parts, want_parts):
        if isinstance(theirs, np.ndarray):
            assert isinstance(mine, np.ndarray) and mine.dtype == theirs.dtype
            assert mine.shape == theirs.shape
        if num_arms < 8 or isinstance(theirs, (bool, int, np.integer, list)) \
                or (isinstance(theirs, np.ndarray) and theirs.dtype.kind != "f"):
            np.testing.assert_array_equal(mine, theirs, strict=True)
        else:
            np.testing.assert_allclose(mine, theirs, rtol=0.0, atol=ROUNDING)


def random_mixture(rng, num_arms):
    return rng.dirichlet(np.full(num_arms, rng.uniform(0.3, 3.0)))


def lattice_mixture(rng, num_arms):
    """Masses on a dyadic lattice, drawn from three values, so ties abound and sums are exact."""
    counts = rng.integers(1, 4, size=num_arms - 1)
    denom = 2 ** int(np.ceil(np.log2(counts.sum() + 1)) + rng.integers(0, 3))
    return np.append(counts, denom - counts.sum()) / denom


def half_prefix_mixture(rng, num_arms):
    """A sorted dyadic distribution whose first 1, 2 or 4 arms hold exactly one half."""
    denom = 1024
    head = int(rng.choice([h for h in (1, 2, 4) if 2 * h <= num_arms]))
    tail = num_arms - head
    rest = np.full(tail, (denom // 2) // tail)
    rest[:(denom // 2) % tail] += 1       # each at most denom / (2 * head)
    return np.concatenate((np.full(head, denom // (2 * head)), rest)) / denom


MIXTURES = (random_mixture, lattice_mixture, half_prefix_mixture)


def cases(seed, per_kind=30):
    """(num_arms, distribution) over every arm count and kind of input."""
    rng = np.random.default_rng(seed)
    for num_arms in ARM_COUNTS:
        for make in MIXTURES:
            for _ in range(per_kind):
                yield num_arms, make(rng, num_arms), rng


def mixture_weights(rng, num_thresholds, dyadic):
    if dyadic:
        units = 2 ** 12
        counts = rng.multinomial(units - num_thresholds - 1,
                                 np.full(num_thresholds + 1, 1.0 / (num_thresholds + 1))) + 1
        shares = counts / units
    else:
        shares = rng.dirichlet(np.ones(num_thresholds + 1))
        shares = np.maximum(shares, 1e-6)
        shares = shares / shares.sum()
    return MixtureWeights(base=float(shares[0]), per_threshold=shares[1:])


def threshold_grid(rng, zeta, dyadic):
    """A grid holding some of the mixture's own masses (exact ties) or random points."""
    if dyadic:
        points = np.concatenate((zeta[zeta <= 0.5], rng.integers(1, 65, size=4) / 128))
    else:
        points = rng.uniform(1e-4, 0.5, size=int(rng.integers(1, 12)))
    return np.unique(points[points > 0.0])


class TestHalfPrefixCases:
    def test_generator_reaches_one_half_exactly(self):
        rng = np.random.default_rng(1)
        for num_arms in ARM_COUNTS:
            zeta = half_prefix_mixture(rng, num_arms)
            assert np.all(np.diff(zeta) <= 0.0) and zeta.sum() == 1.0
            assert 0.5 in np.cumsum(zeta)


class TestSimplexAgreement:
    def test_validate_and_rows(self):
        spoilers = (np.nan, np.inf, -1e-12, 2e-9, -2e-9, 5e-10, -1.0)
        for num_arms, zeta, rng in cases(11):
            matrix = np.stack([zeta, random_mixture(rng, num_arms), zeta[::-1]])
            if rng.random() < 0.5:
                row, arm = int(rng.integers(3)), int(rng.integers(num_arms))
                matrix[row, arm] += spoilers[int(rng.integers(len(spoilers)))]
            for row in matrix:
                assert validate(row) == ref.validate(row)
            assert_same(num_arms, outcome(require_distribution_rows, matrix, "advice"),
                        outcome(ref.require_distribution_rows, matrix, "advice"))

    def test_weighted_average(self):
        for num_arms, zeta, rng in cases(13):
            experts = int(rng.integers(1, 9))
            advices = np.stack([zeta] + [random_mixture(rng, num_arms)
                                         for _ in range(experts - 1)])
            weights = rng.uniform(1e-3, 1.0, size=experts)
            spoil = rng.integers(6)
            if spoil == 1:
                weights[int(rng.integers(experts))] = (0.0, -1.0, np.nan, np.inf)[
                    int(rng.integers(4))]
            elif spoil == 2:
                weights = weights[1:]
            elif spoil == 3:
                advices = np.zeros_like(advices)
            assert_same(num_arms, outcome(weighted_average, advices, weights),
                        outcome(ref.weighted_average, advices, weights))

    def test_sort_pivot_and_sample(self):
        for num_arms, zeta, rng in cases(17):
            values, perm = sort_descending(zeta)
            assert_same(num_arms, ("ok", (values, perm.forward, perm.inverse)),
                        ("ok", ref.sort_descending(zeta)))
            assert_same(num_arms, outcome(pivot_index, values),
                        outcome(ref.pivot_index, values))
            assert_same(num_arms, outcome(pivot_index, zeta),
                        outcome(ref.pivot_index, zeta))
            probs = zeta.copy()
            probs[rng.random(num_arms) < 0.3] = 0.0
            cdf = np.cumsum(probs)
            for u in (0.0, float(rng.random()), float(cdf[int(rng.integers(num_arms))]),
                      0.9999999999999999):
                assert sample_index(probs, u) == ref.sample_index(probs, u)

    def test_nan_orders_like_numpy(self):
        zeta = np.array([0.2, np.nan, 0.5, np.nan, 0.3, 0.5])
        values, perm = sort_descending(zeta)
        want_values, want_forward, want_inverse = ref.sort_descending(zeta)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(perm.forward, want_forward)
        np.testing.assert_array_equal(perm.inverse, want_inverse)
        for probs in (np.array([0.3, np.nan, 0.7]), np.array([np.nan, 0.5, 0.5])):
            for u in (0.0, 0.2, 0.5, 0.99):
                assert sample_index(probs, u) == ref.sample_index(probs, u)
        assert pivot_index(np.array([0.6, np.nan, 0.1])) == ref.pivot_index(
            np.array([0.6, np.nan, 0.1]))

    def test_spoiled_pivot_inputs(self):
        for zeta in (np.array([]), np.array([0.3, 0.7]), np.array([0.6, -0.5, -0.5])):
            assert_same(2, outcome(pivot_index, zeta), outcome(ref.pivot_index, zeta))


class TestTruncationAgreement:
    def test_truncate(self):
        for num_arms, zeta, rng in cases(19):
            q = np.sort(zeta)[::-1]
            pivot = ref.pivot_index(q)
            thresholds = [0.0, 0.5, float(rng.uniform(0.0, 0.5))]
            thresholds += [float(x) for x in q[pivot:] if x <= 0.5]   # arms on the threshold
            for s in thresholds:
                assert_same(num_arms, outcome(truncate, q, pivot, s),
                            outcome(ref.truncate, q, pivot, s))

    @pytest.mark.parametrize("q,pivot,threshold", [
        (np.array([0.0, 1.0]), 1, 0.1),            # no majority mass
        (np.array([0.5, 0.5]), 0, 0.1),
        (np.array([0.5, 0.5]), 3, 0.1),
        (np.array([0.6, 0.4]), 1, 0.51),
        (np.array([0.6, 0.4]), 1, -0.01),
        (np.array([0.6, 0.4]), 1, float("nan")),
        (np.array([0.9, 0.3]), 1, 0.1),            # not a distribution
        (np.array([0.9, np.nan, 0.1]), 1, 0.1),
        (np.array([[0.5, 0.5]]), 1, 0.1),
    ])
    def test_spoiled(self, q, pivot, threshold):
        assert_same(2, outcome(truncate, q, pivot, threshold),
                    outcome(ref.truncate, q, pivot, threshold))


class TestFixedPointAgreement:
    def test_solve_and_residual(self):
        for num_arms, zeta, rng in cases(23, per_kind=20):
            zeta = np.sort(zeta)[::-1]
            pivot = ref.pivot_index(zeta)
            dyadic = rng.random() < 0.5
            grid = threshold_grid(rng, zeta, dyadic)
            weights = mixture_weights(rng, grid.size, dyadic)
            got = outcome(_solve, zeta, pivot, weights, grid)
            assert_same(num_arms, got, outcome(ref.solve, zeta, pivot, weights, grid))
            q = got[1][0]
            for candidate in (q, zeta):
                assert_same(num_arms,
                            outcome(mixture_residual, candidate, zeta, pivot, weights, grid),
                            outcome(ref.mixture_residual, candidate, zeta, pivot, weights, grid))

    @pytest.mark.parametrize("zeta,pivot", [
        (np.array([0.3, 0.7]), 1),                  # unsorted
        (np.array([0.4, 0.3, 0.3]), 1),             # light majority
        (np.array([0.6, 0.3, 0.1]), 2),             # pivot not minimal
        (np.array([0.6, 0.4]), 0),
        (np.array([0.6, 0.4]), 3),
        (np.array([0.6, 0.5]), 1),                  # not a distribution
        (np.array([0.6, np.inf]), 1),
    ])
    def test_spoiled_mixtures(self, zeta, pivot):
        weights = MixtureWeights(0.5, np.array([0.25, 0.25]))
        grid = np.array([0.1, 0.2])
        assert_same(2, outcome(solve_fixed_point, zeta, pivot, weights, grid),
                    outcome(ref.solve, zeta, pivot, weights, grid))

    def test_nan_share_fails_the_residual_check(self):
        zeta, grid = np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.2])
        weights = MixtureWeights(float("nan"), np.array([0.25, 0.25]))
        got = outcome(_solve, zeta, 1, weights, grid)
        assert got[0] is RuntimeError and "residual nan" in got[1]
        assert_same(3, got, outcome(ref.solve, zeta, 1, weights, grid))

    def test_residual_without_majority_mass(self):
        args = (np.array([0.0, 1.0]), np.array([0.6, 0.4]), 1,
                MixtureWeights(0.5, np.array([0.5])), np.array([0.2]))
        assert_same(2, outcome(mixture_residual, *args), outcome(ref.mixture_residual, *args))


class SearchCountingGrid(np.ndarray):
    """A threshold grid that counts the searches made on it."""

    def searchsorted(self, *args, **kwargs):
        self.searches += 1
        return np.asarray(self).searchsorted(*args, **kwargs)


def counting_grid(points):
    grid = np.array(points, dtype=float).view(SearchCountingGrid)
    grid.searches = 0
    return grid


class TestExactTie:
    """A minority mass exactly on a threshold is truncated by it: (grid[b-1], grid[b]]."""

    # Dyadic shares: base 1/2 and 1/4 per threshold, thresholds 1/8 and 1/4.
    WEIGHTS = MixtureWeights(0.5, np.array([0.25, 0.25]))
    POINTS = [0.125, 0.25]

    @staticmethod
    def table_and_advice(zeta, solved):
        """The removed-mass table and the minority arm's threshold advice, from the placement."""
        q, below, residual = solved
        grid = np.array(TestExactTie.POINTS)
        table = truncated_mass_table(q.tolist()[1:], below, grid.size)
        trace = RoundTrace(
            t=1, advices=np.tile(zeta, (2, 1)), zeta_sorted=zeta,
            perm=ArmPermutation(forward=np.arange(2), inverse=np.arange(2)), pivot=1,
            q_sorted=q, p_sorted=q, p_original=q, thresholds=grid, dropped_table=table,
            majority_mass=q.item(0), minority_mass=q.item(1), residual=residual,
            below=below, iterations=sum(below))
        return table, threshold_advice_at(trace, 1)

    def test_mass_grown_onto_a_threshold_stays_truncated(self):
        # The arm starts at 1/2 * 3/8 = 3/16, crosses 1/8, and that
        # threshold's share lifts it to (3/16) / (3/4) = 1/4, exactly onto
        # the second threshold, which keeps removing it.
        zeta = np.array([0.625, 0.375])
        grid = counting_grid(self.POINTS)
        got = _solve(zeta, 1, self.WEIGHTS, grid)
        assert_same(2, ("ok", got), outcome(ref.solve, zeta, 1, self.WEIGHTS,
                                            np.asarray(grid)))
        q, below, residual = got
        assert q.tolist() == [0.75, 0.25] and below == [1] and residual == 0.0
        assert truncate(q, 1, 0.25).tolist() == [1.0, 0.0]
        # One search moved the arm; the confirming pass found it in the
        # interval closed by 1/4 and made no search.
        assert grid.searches == 1
        # From 1/4 on the arm is removed: its mass is in the table there,
        # and those thresholds advise it 0.
        table, advice = self.table_and_advice(zeta, got)
        assert table == StepFunction([0, 1], [0.0, 0.25])
        assert advice == StepFunction([0, 1], [0.25, 0.0])

    def test_base_mass_on_the_first_threshold_needs_no_search(self):
        zeta = np.array([0.75, 0.25])
        grid = counting_grid(self.POINTS)
        got = _solve(zeta, 1, self.WEIGHTS, grid)
        assert_same(2, ("ok", got), outcome(ref.solve, zeta, 1, self.WEIGHTS,
                                            np.asarray(grid)))
        assert got[0].tolist() == [0.875, 0.125] and got[1] == [0]
        assert grid.searches == 0
        table, advice = self.table_and_advice(zeta, got)
        assert table == StepFunction([0], [0.125])
        assert advice == StepFunction([0], [0.0])


class TestNanResidual:
    ZETA = np.array([0.4, 0.3, 0.2, 0.1])   # pivot 2: arms 0, 1 majority, 2, 3 minority

    @pytest.mark.parametrize("arm", [0, 1, 2, 3], ids=["majority0", "majority1",
                                                       "minority2", "minority3"])
    @pytest.mark.parametrize("points", [[], [0.05, 0.15, 0.25]], ids=["no_grid", "grid"])
    def test_nan_entry_of_q(self, arm, points):
        grid = np.array(points)
        shares = np.full(grid.size + 1, 1.0 / (grid.size + 1))
        weights = MixtureWeights(float(shares[0]), shares[1:])
        q = self.ZETA.copy()
        q[arm] = np.nan
        got = mixture_residual(q, self.ZETA, 2, weights, grid)
        want = ref.mixture_residual(q, self.ZETA, 2, weights, grid)
        assert math.isnan(got) and math.isnan(want)
