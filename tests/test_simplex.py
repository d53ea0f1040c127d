import numpy as np
import pytest

from myga.simplex import (ArmPermutation, _first_bad_row, distribution_rows,
                          left_sum, pivot_index, require_distribution,
                          require_distribution_rows, sample_index,
                          sort_descending, validate, weighted_average)
import numpy_reference as ref


class TestLeftSum:
    @pytest.mark.parametrize("values", [
        [1e16, 1.0, -1e16],     # builtin sum on Python >= 3.12 returns 1.0 here
        [1.0, 1e16, -1e16],
        [0.1, 0.2, 0.3],
        [-0.0],
        [0.5],
        [1e-300, 1e300, -1e300, 1e-300, 3.0, 7.0, 0.1],
    ])
    def test_matches_numpy_on_cancelling_sums(self, values):
        assert left_sum(values) == float(np.sum(np.array(values)))

    def test_matches_numpy_below_eight_entries(self):
        rng = np.random.default_rng(41)
        for size in range(1, 8):
            for _ in range(300):
                x = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size=size)
                assert left_sum(x.tolist()) == float(np.sum(x))

    def test_empty_is_zero(self):
        assert left_sum([]) == 0.0


class TestValidate:
    def test_accepts_exact_distribution(self):
        assert validate(np.array([0.2, 0.3, 0.5]))

    def test_accepts_tolerated_drift(self):
        assert validate(np.array([0.2, 0.3, 0.5 + 5e-10]))

    def test_rejects_negative_entry(self):
        assert not validate(np.array([0.6, -0.1, 0.5]))

    def test_rejects_bad_total(self):
        assert not validate(np.array([0.2, 0.3, 0.4]))

    def test_rejects_nan_and_shape(self):
        assert not validate(np.array([np.nan, 1.0]))
        assert not validate(np.array([[0.5, 0.5]]))
        assert not validate([[0.5, 0.5]])
        assert not validate(np.array([]))
        assert not validate([])

    def test_require_raises_with_context(self):
        with pytest.raises(ValueError, match="expert advice"):
            require_distribution([0.7, 0.7], what="expert advice")


class TestRequireDistributionRows:
    def test_matches_per_row_rule_and_names_first_bad_row(self):
        # The whole-matrix check must accept exactly what validate accepts
        # row by row, and report the first row validate rejects.
        rng = np.random.default_rng(31)
        spoilers = (np.nan, np.inf, -np.inf, -1e-12, 2e-9, -2e-9, 5e-10)
        for _ in range(400):
            rows, arms = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            matrix = rng.dirichlet(np.ones(arms), size=rows)
            for _ in range(int(rng.integers(0, 3))):
                r, a = int(rng.integers(rows)), int(rng.integers(arms))
                with np.errstate(invalid="ignore"):  # inf + -inf is a fine NaN here
                    matrix[r, a] += spoilers[int(rng.integers(len(spoilers)))]
            bad = [i for i, row in enumerate(matrix) if not validate(row)]
            if bad:
                with pytest.raises(ValueError, match=f"expert advice row {bad[0]} "):
                    require_distribution_rows(matrix, what="expert advice")
            else:
                out = require_distribution_rows(matrix, what="expert advice")
                np.testing.assert_array_equal(out, matrix)

    def test_rejects_non_matrix(self):
        # A vector, an empty vector and an empty stack of matrices have no
        # rows to check; each is refused as a whole, none returned.
        for array in (np.array([0.5, 0.5]), np.array([]), np.zeros((0, 3, 2))):
            with pytest.raises(ValueError) as raised:
                require_distribution_rows(array, what="expert advice")
            assert str(raised.value) == \
                f"expert advice is not a matrix of distributions: {array!r}"

    @pytest.mark.parametrize("scalar", [np.float64(1.0), 1.0])
    def test_rejects_zero_dimensional_input(self, scalar):
        with pytest.raises(ValueError) as raised:
            require_distribution_rows(scalar, what="expert advice")
        assert str(raised.value) == \
            "expert advice is not a matrix of distributions: array(1.)"


# Entries a row may hold besides ordinary masses: every one but -0.0 and
# the smallest subnormal breaks the rule, or overflows a row's sum.
ODD_ENTRIES = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5e308)
# Left-to-right row sums at the tolerance's two edges and one ulp past them
# either way.
EDGE_SUMS = tuple(np.nextafter(edge, toward) for edge in (1.0 + 1e-9, 1.0 - 1e-9)
                  for toward in (-np.inf, np.inf)) + (1.0 + 1e-9, 1.0 - 1e-9)


def row_summing_to(rng, num_arms, target):
    """A row of ``num_arms`` non-negative floats whose left-to-right sum is exactly
    ``target``; an entry before the last may be -0.0 or 5e-324."""
    while True:   # a head whose sums with every last entry skip the target is redrawn
        head = (rng.dirichlet(np.ones(num_arms)) * rng.uniform(0.2, 0.9))[:-1].tolist()
        if rng.random() < 0.5:
            head[int(rng.integers(len(head)))] = float(rng.choice([-0.0, 5e-324]))
        prefix = left_sum(head)
        last = target - prefix
        for _ in range(4):
            total = prefix + last
            if total == target:
                return head + [float(last)]
            last = np.nextafter(last, np.inf if total < target else -np.inf)


class TestDistributionRows:
    def test_matches_first_bad_row_on_every_row(self):
        # The whole-array rule gives each row the verdict ``_first_bad_row``
        # gives it alone, on seeded (C, E, K) blocks with K from 2 to 8.
        rng = np.random.default_rng(53)
        verdicts = {True: 0, False: 0}
        edge_rows = 0
        for num_arms in range(2, 9):
            for _ in range(60):
                shape = (int(rng.integers(1, 9)), int(rng.integers(1, 5)), num_arms)
                block = rng.dirichlet(np.ones(num_arms), size=shape[:2])
                for c, e in np.ndindex(*shape[:2]):
                    pick = rng.random()
                    if pick < 0.3:
                        block[c, e, int(rng.integers(num_arms))] = \
                            ODD_ENTRIES[int(rng.integers(len(ODD_ENTRIES)))]
                    elif pick < 0.7:
                        block[c, e] = row_summing_to(
                            rng, num_arms, EDGE_SUMS[int(rng.integers(len(EDGE_SUMS)))])
                        edge_rows += 1
                    elif pick < 0.8:   # a negative entry the row's sum does not show
                        a, b = rng.choice(num_arms, size=2, replace=False)
                        block[c, e, b] += 2.0 * block[c, e, a]
                        block[c, e, a] *= -1.0
                got = distribution_rows(block)
                assert got.shape == shape[:2] and got.dtype == bool
                for (c, e), verdict in np.ndenumerate(got):
                    expected = _first_bad_row([block[c, e].tolist()]) < 0
                    assert verdict == expected, (block[c, e].tolist(), verdict)
                    verdicts[expected] += 1
        assert min(verdicts.values()) > 1000
        assert edge_rows > 1000

    def test_edge_sums_split_at_the_tolerance(self):
        # Each edge row is accepted exactly when its sum is within 1e-9 of 1.
        rng = np.random.default_rng(59)
        for target in EDGE_SUMS:
            row = row_summing_to(rng, 3, target)
            assert left_sum(row) == target
            assert bool(distribution_rows(np.array([row]))[0]) == (abs(target - 1.0) <= 1e-9)


class TestWeightedAverage:
    def test_two_expert_mixture(self):
        advices = np.array([[1.0, 0.0], [0.5, 0.5]])
        out = weighted_average(advices, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-15)

    def test_weights_scale_invariance(self):
        rng = np.random.default_rng(7)
        advices = rng.dirichlet(np.ones(5), size=3)
        w = rng.uniform(0.1, 2.0, size=3)
        np.testing.assert_allclose(weighted_average(advices, w),
                                   weighted_average(advices, 10.0 * w), atol=1e-15)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, k = int(rng.integers(1, 8)), int(rng.integers(2, 9))
            advices = rng.dirichlet(np.ones(k), size=n)
            w = rng.uniform(1e-6, 3.0, size=n)
            assert ref.validate(weighted_average(advices, w), tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            weighted_average(np.ones((2, 3)) / 3, np.ones(3))

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_average(np.ones((2, 2)) / 2, np.array([1.0, 0.0]))


class TestSortDescending:
    def test_example(self):
        zeta = np.array([0.1, 0.6, 0.3])
        ordered, perm = sort_descending(zeta)
        np.testing.assert_array_equal(ordered, [0.6, 0.3, 0.1])
        np.testing.assert_array_equal(perm.forward, [1, 2, 0])
        np.testing.assert_array_equal(perm.inverse, [2, 0, 1])

    def test_ties_keep_original_order(self):
        ordered, perm = sort_descending(np.array([0.4, 0.2, 0.4]))
        np.testing.assert_array_equal(perm.forward, [0, 2, 1])
        np.testing.assert_array_equal(ordered, [0.4, 0.4, 0.2])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            zeta = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
            ordered, perm = sort_descending(zeta)
            np.testing.assert_array_equal(perm.to_original(ordered), zeta)
            np.testing.assert_array_equal(zeta[perm.forward], ordered)
            assert np.all(np.diff(ordered) <= 0.0)

    def test_permutation_composes_to_identity(self):
        _, perm = sort_descending(np.array([0.25, 0.25, 0.25, 0.25]))
        forward, inverse = np.asarray(perm.forward), np.asarray(perm.inverse)
        np.testing.assert_array_equal(forward[inverse], np.arange(4))
        np.testing.assert_array_equal(inverse[forward], np.arange(4))


class TestPivotIndex:
    def test_uniform_four_arms_splits_at_two(self):
        # 0.25 + 0.25 reaches one half exactly; the comparison is exact >=.
        assert pivot_index(np.array([0.25, 0.25, 0.25, 0.25])) == 2

    def test_point_mass(self):
        assert pivot_index(np.array([1.0, 0.0, 0.0])) == 1

    def test_mid_split(self):
        assert pivot_index(np.array([0.4, 0.35, 0.25])) == 2

    def test_prefix_is_minimal(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            zeta = np.sort(rng.dirichlet(np.ones(int(rng.integers(2, 16)))))[::-1]
            k = pivot_index(zeta)
            assert zeta[:k].sum() >= 0.5
            if k > 1:
                assert zeta[:k - 1].sum() < 0.5

    def test_majority_arm_mass_floor(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            size = int(rng.integers(2, 16))
            zeta = np.sort(rng.dirichlet(np.ones(size)))[::-1]
            k = pivot_index(zeta)
            assert zeta[k - 1] >= 1.0 / (2.0 * size)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-increasing"):
            pivot_index(np.array([0.3, 0.7]))


class TestSampleIndex:
    def test_boundaries(self):
        p = np.array([0.3, 0.7])
        assert sample_index(p, 0.0) == 0
        assert sample_index(p, 0.2999) == 0
        assert sample_index(p, 0.3) == 1
        assert sample_index(p, 0.9999) == 1

    def test_skips_zero_mass_arms(self):
        p = np.array([0.5, 0.0, 0.5])
        assert sample_index(p, 0.5) == 2
        assert sample_index(p, 0.49) == 0
        for u in np.linspace(0.0, 0.999, 97):
            assert p[sample_index(p, float(u))] > 0.0

    def test_matches_empirical_frequencies(self):
        rng = np.random.default_rng(21)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        draws = np.array([sample_index(p, float(rng.random())) for _ in range(20000)])
        freq = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freq, p, atol=0.02)

    def test_top_drift_falls_back_to_positive_arm(self):
        p = np.array([1.0 - 1e-12, 1e-12, 0.0])
        assert p[sample_index(p, 0.9999999999999999)] > 0.0


@pytest.mark.parametrize("advices", [np.array([0.5, 0.5]), np.full((1, 2, 2), 0.5)],
                         ids=["1-d", "3-d"])
def test_advice_of_wrong_dimension_is_named(advices):
    with pytest.raises(ValueError) as raised:
        weighted_average(advices, np.ones(1))
    assert str(raised.value) == "advices must be a 2-d array, one row per expert"
