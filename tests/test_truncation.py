import numpy as np
import pytest

from grid_reference import dense_mass_table, densify, truncated_mass
from myga.truncation import StepFunction, truncate, truncated_mass_table

# A worked eleven-arm distribution used across several cases. Pivot 3 means
# the first three arms form the majority block (mass 0.5); the remaining
# eight arms are the minority tail that thresholds act on.
Q11 = np.array([0.2, 0.1, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])
PIVOT11 = 3

GOLDEN_ROWS = {
    0.02: np.array([0.2, 0.1, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03]),
    0.03: np.array([0.224, 0.112, 0.224, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.0, 0.0]),
    0.04: np.array([0.24, 0.12, 0.24, 0.1, 0.1, 0.1, 0.05, 0.05, 0.0, 0.0, 0.0]),
    0.05: np.array([0.28, 0.14, 0.28, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]),
    0.1: np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    0.2: np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    0.5: np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
}


class TestGoldenRows:
    @pytest.mark.parametrize("threshold", sorted(GOLDEN_ROWS))
    def test_row(self, threshold):
        out = truncate(Q11, PIVOT11, threshold)
        np.testing.assert_allclose(out, GOLDEN_ROWS[threshold], atol=1e-12)

    def test_zero_threshold_is_identity(self):
        np.testing.assert_array_equal(truncate(Q11, PIVOT11, 0.0), Q11)

    @pytest.mark.parametrize("threshold,expected", [
        (0.02, 0.0), (0.03, 0.06), (0.04, 0.1), (0.05, 0.2),
        (0.1, 0.5), (0.2, 0.5), (0.5, 0.5),
    ])
    def test_removed_mass(self, threshold, expected):
        assert truncated_mass(Q11, PIVOT11, threshold) == pytest.approx(expected, abs=1e-12)


class TestTruncateProperties:
    def _random_case(self, rng):
        size = int(rng.integers(2, 12))
        q = np.sort(rng.dirichlet(np.ones(size)))[::-1]
        pivot = int(np.searchsorted(np.cumsum(q), 0.5, side="left")) + 1
        threshold = float(rng.uniform(0.0, 0.5))
        return q, pivot, threshold

    def test_mass_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            q, pivot, s = self._random_case(rng)
            out = np.asarray(truncate(q, pivot, s))
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0.0)

    def test_majority_scaling_identity(self):
        # Each surviving majority entry is the original times one plus the
        # removed-to-majority mass ratio, so out * Q_maj == q * (Q_maj + D).
        rng = np.random.default_rng(19)
        for _ in range(400):
            q, pivot, s = self._random_case(rng)
            out = np.asarray(truncate(q, pivot, s))
            q_maj = q[:pivot].sum()
            dropped = truncated_mass(q, pivot, s)
            np.testing.assert_allclose(out[:pivot] * q_maj,
                                       q[:pivot] * (q_maj + dropped), atol=1e-12)

    def test_minority_entries_kept_or_zeroed_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            q, pivot, s = self._random_case(rng)
            out = truncate(q, pivot, s)
            for i in range(pivot, q.size):
                if q[i] <= s:
                    assert out[i] == 0.0
                else:
                    assert out[i] == q[i]

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            q, pivot, s = self._random_case(rng)
            once = truncate(q, pivot, s)
            twice = truncate(once, pivot, s)
            np.testing.assert_array_equal(once, twice)

    def test_zero_set_grows_with_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            q, pivot, _ = self._random_case(rng)
            grid = np.sort(rng.uniform(0.0, 0.5, size=6))
            previous = np.zeros(q.size, dtype=bool)
            for s in grid:
                zeroed = np.asarray(truncate(q, pivot, float(s))) == 0.0
                zeroed &= q > 0.0
                assert np.all(previous <= zeroed)
                previous = zeroed

    def test_threshold_equal_to_entry_removes_it(self):
        q = np.array([0.6, 0.25, 0.15])
        out = truncate(q, 1, 0.15)
        assert out[2] == 0.0
        assert out[1] == 0.25

    def test_preserves_minority_sort_order(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            q, pivot, s = self._random_case(rng)
            out = truncate(q, pivot, s)
            assert np.all(np.diff(out[pivot:]) <= 0.0)


class TestTruncateValidation:
    def test_rejects_zero_majority_mass(self):
        with pytest.raises(ValueError, match="majority"):
            truncate(np.array([0.0, 1.0]), 1, 0.1)

    def test_rejects_bad_pivot(self):
        with pytest.raises(ValueError, match="pivot"):
            truncate(np.array([0.5, 0.5]), 0, 0.1)
        with pytest.raises(ValueError, match="pivot"):
            truncate(np.array([0.5, 0.5]), 3, 0.1)

    def test_rejects_threshold_out_of_range(self):
        with pytest.raises(ValueError, match="threshold"):
            truncate(Q11, PIVOT11, 0.51)
        with pytest.raises(ValueError, match="threshold"):
            truncate(Q11, PIVOT11, -0.01)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            truncate(np.array([0.9, 0.3]), 1, 0.1)


def placed_table(minority_desc, thresholds):
    """The removed-mass table of a minority block placed on the grid by binary search."""
    minority = np.asarray(minority_desc, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    below = thresholds.searchsorted(minority, side="left").tolist()
    return truncated_mass_table(minority.tolist(), below, thresholds.size)


class TestTruncatedMassTable:
    def test_matches_per_threshold_calls(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            q = np.sort(rng.dirichlet(np.ones(size)))[::-1]
            pivot = int(np.searchsorted(np.cumsum(q), 0.5, side="left")) + 1
            thresholds = np.sort(rng.uniform(1e-4, 0.5, size=int(rng.integers(1, 9))))
            table = densify(placed_table(q[pivot:], thresholds), thresholds.size)
            singles = [truncated_mass(q, pivot, float(s)) for s in thresholds]
            # The table accumulates from the small end, the scalar sums the
            # removed block directly, so agreement is only up to rounding.
            np.testing.assert_allclose(table, np.array(singles), atol=1e-15)

    def test_equals_the_dense_table(self):
        # Minority masses on and between the points of a lattice grid, so
        # arms tie with thresholds, with each other, and sit above the grid.
        rng = np.random.default_rng(43)
        for _ in range(300):
            grid = np.arange(int(rng.integers(1, 40)), 51) / 100.0
            masses = np.sort(np.concatenate((
                rng.integers(1, 60, size=int(rng.integers(0, 6))) / 100.0,
                rng.uniform(0.0, 0.6, size=int(rng.integers(0, 4))))))[::-1]
            step = placed_table(masses, grid)
            assert len(step.breaks) <= masses.size + 1
            np.testing.assert_array_equal(densify(step, grid.size),
                                          dense_mass_table(masses, grid))

    def test_empty_minority(self):
        table = truncated_mass_table([], [], 2)
        assert table == StepFunction([0], [0.0])

    def test_empty_grid(self):
        assert truncated_mass_table([0.2, 0.1], [0, 0], 0) == StepFunction([], [])

    def test_worked_values(self):
        table = placed_table(Q11[PIVOT11:], np.array([0.04, 0.05, 0.1]))
        assert table.breaks == [0, 1, 2]
        np.testing.assert_allclose(table.values, [0.1, 0.2, 0.5], atol=1e-12)
