import numpy as np
import pytest

from grid_reference import zero_boundaries
import myga.fixed_point as fixed_point_mod
from fixed_point_reference import MixtureWeights, two_arm_fixed_point
from myga.fixed_point import _solve, mixture_residual
from myga.truncation import truncate


def solve(zeta, pivot, weights, grid):
    """The policy's call of ``_solve``, on lists: q as an array and the unit advances.

    The unit advances are ``sum(below)``, the (minority arm, threshold)
    pairs with the arm strictly above the threshold.
    """
    q, below, _ = _solve(zeta.tolist(), pivot, weights, grid.tolist())
    return np.array(q), sum(below)


def random_instance(rng, max_arms=16, max_thresholds=64):
    """Random sorted mixture, pivot, weight shares, and threshold grid."""
    num_arms = int(rng.integers(2, max_arms + 1))
    zeta = np.sort(rng.dirichlet(np.ones(num_arms)))[::-1]
    pivot = int(np.searchsorted(np.cumsum(zeta), 0.5, side="left")) + 1
    grid = np.unique(rng.uniform(1e-4, 0.5, size=int(rng.integers(1, max_thresholds + 1))))
    shares = rng.dirichlet(np.full(grid.size + 1, float(rng.uniform(0.5, 3.0))))
    shares = np.maximum(shares, 1e-6)
    shares = shares / shares.sum()
    weights = MixtureWeights(base=float(shares[0]), per_threshold=shares[1:])
    return zeta, pivot, weights, grid


def reference_solver(zeta, pivot, weights, grid):
    """One-advance-at-a-time rewrite of the boundary growth, for cross-checks.

    Scans thresholds round-robin and moves each zero boundary up a single
    arm whenever that arm's current mass strictly exceeds the threshold,
    recomputing the one affected mass immediately.  Slow but independent
    of the vectorized sweep in the package.
    """
    num_arms = zeta.size
    minority = num_arms - pivot
    base = float(weights.base)
    w_thresh = np.asarray(weights.per_threshold, dtype=float)
    kept = [pivot] * grid.size
    keep_weight = [0.0] * minority
    q_min = [base * float(zeta[pivot + i]) for i in range(minority)]
    steps = 0
    advanced = True
    while advanced:
        advanced = False
        for j in range(grid.size):
            while kept[j] < num_arms and q_min[kept[j] - pivot] > grid[j]:
                i = kept[j] - pivot
                keep_weight[i] += float(w_thresh[j])
                q_min[i] = base * float(zeta[pivot + i]) / (1.0 - keep_weight[i])
                kept[j] += 1
                steps += 1
                advanced = True
    q = np.array(zeta, dtype=float)
    q[pivot:] = q_min
    if minority:
        q[:pivot] = zeta[:pivot] * ((1.0 - sum(q_min)) / float(zeta[:pivot].sum()))
    return q, steps


def lattice_instance(rng):
    """Dyadic instance whose masses, shares and thresholds sit on exact lattices.

    Every product and weight sum the solvers form is exact.  The base share
    is 1/4 and the lowest threshold holds half the weight, so an arm that
    crosses only that threshold grows to exactly twice its base mass.  Arms
    therefore land exactly on thresholds, at the start and after growth:
    the tie case of the contract.
    """
    denom = 2 ** int(rng.integers(4, 8))
    num_arms = int(rng.integers(2, 9))
    steps = rng.multinomial(denom - num_arms, np.full(num_arms, 1.0 / num_arms)) + 1
    zeta = np.sort(steps)[::-1] / denom
    pivot = int(np.searchsorted(np.cumsum(zeta), 0.5, side="left")) + 1
    size = min(int(rng.integers(2, 20)), denom // 2)
    grid = np.sort(rng.choice(np.arange(1, denom // 2 + 1), size=size, replace=False)) / denom
    units = 2 ** 10
    counts = np.empty(size, dtype=np.int64)
    counts[0] = units // 2
    counts[1:] = rng.multinomial(units // 4 - (size - 1), np.full(size - 1, 1.0 / (size - 1))) + 1
    return zeta, pivot, MixtureWeights(base=0.25, per_threshold=counts / units), grid


def sweep_solver(zeta, pivot, weights, grid, sweep_log=None):
    """Per-threshold boundary sweep, an independent form of the same growth.

    Keeps one zero boundary per threshold, starting at full truncation,
    and in each sweep advances every boundary past the minority arms that
    strictly exceed its threshold, then recomputes every mass from the
    weight of the boundaries that passed it.  Counts unit advances and logs
    (minority masses, boundaries) per sweep like the package solver.
    """
    num_arms = zeta.size
    k = pivot
    minority = num_arms - k
    if grid.size == 0 or minority == 0:
        return zeta.copy(), 0
    base = float(weights.base)
    w_thresh = np.asarray(weights.per_threshold, dtype=float)
    zeta_min = zeta[k:]
    boundary = np.full(grid.size, k, dtype=np.int64)
    blocked = np.zeros(minority)
    q_min = base * zeta_min
    iterations = 0
    if sweep_log is not None:
        sweep_log.append((q_min.copy(), boundary.copy()))
    for _ in range(minority * grid.size + 2):
        ascending = q_min[::-1]
        count_at_or_below = np.searchsorted(ascending, grid, side="right")
        target = np.minimum(k + (minority - count_at_or_below), num_arms)
        new_boundary = np.maximum(boundary, target)
        moved = new_boundary > boundary
        if not np.any(moved):
            assert np.array_equal(boundary, target)
            break
        iterations += int((new_boundary - boundary).sum())
        delta = np.zeros(minority + 1)
        np.add.at(delta, boundary[moved] - k, w_thresh[moved])
        np.add.at(delta, new_boundary[moved] - k, -w_thresh[moved])
        blocked += np.cumsum(delta[:minority])
        q_min = base * zeta_min / (1.0 - blocked)
        boundary = new_boundary
        if sweep_log is not None:
            sweep_log.append((q_min.copy(), boundary.copy()))
    else:
        raise AssertionError("boundary sweep failed to terminate")
    q = np.empty(num_arms)
    q[k:] = q_min
    q[:k] = zeta[:k] * ((1.0 - float(q_min.sum())) / float(zeta[:k].sum()))
    return q, iterations


# Both forms of the boundary growth must satisfy the growth invariants.
GROWTH_SOLVERS = (solve, sweep_solver)


def logged_growth(passes):
    """Both growth forms as solvers returning (q, unit advances, passes).

    Each pass is (minority masses, per-threshold zero boundaries).  The
    package's passes are those the ``growth_passes`` fixture recorded into
    ``passes``; the sweep logs its own.
    """
    def package(zeta, pivot, weights, grid):
        passes.clear()
        q, iterations = solve(zeta, pivot, weights, grid)
        return q, iterations, [(masses, zero_boundaries(below, pivot, grid.size))
                               for masses, below in passes]

    def sweep(zeta, pivot, weights, grid):
        log = []
        q, iterations = sweep_solver(zeta, pivot, weights, grid, sweep_log=log)
        return q, iterations, log

    return package, sweep


def literal_residual(q, zeta, pivot, weights, grid):
    """The residual straight from the definition: one truncate call per threshold."""
    target = weights.base * zeta
    for w, s in zip(weights.per_threshold, grid):
        target = target + w * np.asarray(truncate(q, pivot, float(s)))
    return float(np.max(np.abs(q - target)))


class TestSolveExamples:
    def test_empty_grid_returns_input(self):
        zeta = np.array([0.6, 0.3, 0.1])
        q, iterations = solve(zeta, 1, MixtureWeights(1.0, np.array([])), np.array([]))
        np.testing.assert_array_equal(q, zeta)
        assert iterations == 0

    def test_two_arm_single_threshold(self):
        # The minority arm starts at 0.5 * 0.1 = 0.05 <= 0.15, so the
        # threshold keeps it truncated and the majority absorbs the mass.
        q, iterations = solve(
            np.array([0.9, 0.1]), 1, MixtureWeights(0.5, np.array([0.5])),
            np.array([0.15]))
        np.testing.assert_allclose(q, [0.95, 0.05], atol=1e-12)
        assert iterations == 0

    def test_two_arm_two_thresholds_stops_at_lowest_crossing(self):
        # Minority mass grows from 0.15 past the 0.1 threshold and lands
        # exactly on 0.2; the comparison is strict, so the 0.2 threshold
        # still truncates and growth stops.  (0.7, 0.3) also solves the
        # mixture equation, but the boundary growth never reaches it.
        q, iterations = solve(
            np.array([0.7, 0.3]), 1, MixtureWeights(0.5, np.array([0.25, 0.25])),
            np.array([0.1, 0.2]))
        np.testing.assert_allclose(q, [0.8, 0.2], atol=1e-12)
        assert iterations == 1

    def test_other_fixed_point_also_has_zero_residual(self):
        weights = MixtureWeights(0.5, np.array([0.25, 0.25]))
        grid = np.array([0.1, 0.2])
        zeta = np.array([0.7, 0.3])
        assert mixture_residual(zeta, zeta, 1, weights, grid) == 0.0

    def test_no_minority_arms(self):
        # A minimal majority prefix covers every arm only in the one-arm
        # case; the solver then returns its input untouched.
        zeta = np.array([1.0])
        q, iterations = solve(zeta, 1, MixtureWeights(0.5, np.array([0.5])),
                              np.array([0.25]))
        np.testing.assert_array_equal(q, zeta)
        assert iterations == 0

    def test_solution_is_distribution_with_capped_minority(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=10,
                                                         max_thresholds=12)
            q, _ = solve(zeta, pivot, weights, grid)
            assert abs(q.sum() - 1.0) <= 1e-9
            assert np.all(q[pivot:] <= zeta[pivot:] + 1e-15)
            assert np.all(q[:pivot] >= zeta[:pivot] - 1e-15)


class TestReferenceAgreement:
    def test_matches_naive_rewrite(self):
        rng = np.random.default_rng(211)
        for _ in range(300):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=10,
                                                         max_thresholds=10)
            q, iterations = solve(zeta, pivot, weights, grid)
            q_ref, steps_ref = reference_solver(zeta, pivot, weights, grid)
            np.testing.assert_allclose(q, q_ref, atol=1e-12)
            assert iterations == steps_ref

    def test_matches_per_arm_oracle_any_size(self):
        # Minority coordinates solve independent one-dimensional equations,
        # so the closed-form oracle must agree arm by arm at any size.
        rng = np.random.default_rng(223)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=12,
                                                         max_thresholds=16)
            q, _ = solve(zeta, pivot, weights, grid)
            for i in range(pivot, zeta.size):
                oracle = two_arm_fixed_point(float(zeta[i]), weights, grid)
                assert abs(q[i] - oracle) <= 1e-9


class TestBoundaryGrowthInvariants:
    def test_iteration_budget(self):
        rng = np.random.default_rng(307)
        for _ in range(300):
            zeta, pivot, weights, grid = random_instance(rng)
            for grow in GROWTH_SOLVERS:
                _, iterations = grow(zeta, pivot, weights, grid)
                assert iterations <= zeta.size * grid.size

    def test_minority_masses_sorted_every_sweep(self, growth_passes):
        rng = np.random.default_rng(311)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=12,
                                                         max_thresholds=24)
            for grow in logged_growth(growth_passes):
                _, _, log = grow(zeta, pivot, weights, grid)
                for q_min, _ in log:
                    assert np.all(np.diff(q_min) <= 1e-12)

    def test_each_mass_never_shrinks_across_sweeps(self, growth_passes):
        rng = np.random.default_rng(313)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=12,
                                                         max_thresholds=24)
            for grow in logged_growth(growth_passes):
                _, _, log = grow(zeta, pivot, weights, grid)
                for (before, _), (after, _) in zip(log, log[1:]):
                    assert np.all(after >= before)

    def test_termination_biconditional(self, growth_passes):
        # At exit, an arm strictly exceeds a threshold exactly when that
        # threshold's zero boundary has moved past the arm.
        rng = np.random.default_rng(317)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=12,
                                                         max_thresholds=24)
            for grow in logged_growth(growth_passes):
                q, _, log = grow(zeta, pivot, weights, grid)
                _, boundary = log[-1]
                for j, s in enumerate(grid):
                    for i in range(pivot, zeta.size):
                        assert (q[i] > s) == (boundary[j] > i)


class TestSweepAgreement:
    @staticmethod
    def assert_same_growth(zeta, pivot, weights, grid):
        q, iterations = solve(zeta, pivot, weights, grid)
        q_ref, iterations_ref = sweep_solver(zeta, pivot, weights, grid)
        assert iterations == iterations_ref
        np.testing.assert_array_equal(q[pivot:, None] > grid, q_ref[pivot:, None] > grid)
        assert np.max(np.abs(q - q_ref)) <= 1e-12
        return q, iterations

    def test_matches_sweep_on_random_instances(self):
        rng = np.random.default_rng(331)
        for _ in range(500):
            self.assert_same_growth(*random_instance(rng))

    def test_matches_sweep_on_lattice_ties(self):
        rng = np.random.default_rng(337)
        ties = grown_ties = 0
        for _ in range(1000):
            zeta, pivot, weights, grid = lattice_instance(rng)
            q, _ = self.assert_same_growth(zeta, pivot, weights, grid)
            on_threshold = np.isin(q[pivot:], grid)
            ties += int(on_threshold.sum())
            grown_ties += int((on_threshold & (q[pivot:] > weights.base * zeta[pivot:])).sum())
        assert ties >= 100 and grown_ties >= 10

    def test_arm_landing_on_threshold_is_removed(self):
        # Arm 1 starts at 0.25 * 0.375 = 0.09375, crosses 0.0625 and grows
        # to 0.09375 / 0.75 = 0.125, exactly the next threshold, which keeps
        # truncating it.  0.1875 also solves the arm's equation; the least
        # fixed point is the one returned.  Arm 2 stays below every threshold.
        zeta = np.array([0.5, 0.375, 0.125])
        weights = MixtureWeights(0.25, np.array([0.25, 0.25, 0.25]))
        grid = np.array([0.0625, 0.125, 0.25])
        q, iterations = self.assert_same_growth(zeta, 1, weights, grid)
        assert q[1] == 0.125
        assert q[2] == 0.03125
        assert iterations == 1
        assert truncate(q, 1, 0.125)[1] == 0.0
        assert two_arm_fixed_point(0.375, weights, grid) == 0.125
        assert mixture_residual(q, zeta, 1, weights, grid) <= 1e-15


class TestResidual:
    def test_solver_output_within_tolerance(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            zeta, pivot, weights, grid = random_instance(rng)
            q, _ = solve(zeta, pivot, weights, grid)
            assert mixture_residual(q, zeta, pivot, weights, grid) <= 1e-9

    def test_unsolved_input_reports_gap(self):
        zeta = np.array([0.9, 0.1])
        weights = MixtureWeights(0.5, np.array([0.5]))
        resid = mixture_residual(zeta, zeta, 1, weights, np.array([0.15]))
        assert resid == pytest.approx(0.05, abs=1e-15)

    def test_empty_grid_identity(self):
        zeta = np.array([0.6, 0.4])
        assert mixture_residual(zeta, zeta, 1, MixtureWeights(1.0, np.array([])),
                                np.array([])) == 0.0

    def test_nan_residual_is_rejected(self, monkeypatch):
        # A NaN residual compares false against the tolerance either way
        # round, so the solver must reject anything not within it.
        monkeypatch.setattr(fixed_point_mod, "mixture_residual",
                            lambda *args, **kwargs: float("nan"))
        with pytest.raises(RuntimeError, match="residual nan exceeds"):
            solve(np.array([0.7, 0.3]), 1, MixtureWeights(0.5, np.array([0.25, 0.25])),
                  np.array([0.1, 0.2]))

    def test_literal_path_matches_fast_path(self):
        # The per-arm residual must agree with the literal one-truncation-
        # per-threshold evaluation, also on non-monotone minority blocks.
        rng = np.random.default_rng(409)
        for _ in range(100):
            zeta, pivot, weights, grid = random_instance(rng, max_arms=10,
                                                         max_thresholds=8)
            q, _ = solve(zeta, pivot, weights, grid)
            minority = zeta.size - pivot
            shuffle = rng.permutation(minority)
            q_shuffled = q.copy()
            q_shuffled[pivot:] = q[pivot:][shuffle]
            zeta_shuffled = zeta.copy()
            zeta_shuffled[pivot:] = zeta[pivot:][shuffle]
            for qq, zz in ((q, zeta), (q_shuffled, zeta_shuffled)):
                resid = mixture_residual(qq, zz, pivot, weights, grid)
                assert resid <= 1e-9
                assert abs(resid - literal_residual(qq, zz, pivot, weights, grid)) <= 1e-12


class TestTwoArmOracle:
    def test_single_threshold_example(self):
        weights = MixtureWeights(0.5, np.array([0.5]))
        assert two_arm_fixed_point(0.1, weights, np.array([0.15])) == pytest.approx(
            0.05, abs=1e-12)

    def test_two_threshold_example_smallest_branch_wins(self):
        # Both 0.2 and 0.3 solve the piecewise equation; the oracle keeps
        # the smallest self-consistent candidate to match boundary growth.
        weights = MixtureWeights(0.5, np.array([0.25, 0.25]))
        assert two_arm_fixed_point(0.3, weights, np.array([0.1, 0.2])) == pytest.approx(
            0.2, abs=1e-12)

    def test_empty_grid_is_identity(self):
        assert two_arm_fixed_point(0.37, MixtureWeights(1.0, np.array([])),
                                   np.array([])) == 0.37

    def test_zero_base_mass(self):
        weights = MixtureWeights(0.5, np.array([0.5]))
        assert two_arm_fixed_point(0.0, weights, np.array([0.25])) == 0.0

    def test_rejects_out_of_range_mass(self):
        weights = MixtureWeights(1.0, np.array([]))
        with pytest.raises(ValueError, match="base mass"):
            two_arm_fixed_point(0.6, weights, np.array([]))

    def test_fixed_point_property(self):
        rng = np.random.default_rng(419)
        for _ in range(500):
            grid = np.unique(rng.uniform(1e-3, 0.5, size=int(rng.integers(1, 12))))
            shares = rng.dirichlet(np.ones(grid.size + 1))
            shares = np.maximum(shares, 1e-6)
            shares = shares / shares.sum()
            weights = MixtureWeights(float(shares[0]), shares[1:])
            base_mass = float(rng.uniform(0.0, 0.5))
            x = two_arm_fixed_point(base_mass, weights, grid)
            kept = float(weights.per_threshold[grid < x].sum())
            assert abs(x - (weights.base * base_mass + x * kept)) <= 1e-12
            assert 0.0 <= x <= 0.5 + 1e-12

