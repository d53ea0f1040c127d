"""The arm-sized float path against its whole-array NumPy references.

The float path returns its vectors as lists of Python floats (a
permutation as lists of ints), and each is compared with the reference's
array.  Below eight arms every result must be equal, bit for bit; from
eight arms on NumPy sums pairwise, so results may differ by rounding, at
most 1e-15.  On spoiled inputs both must raise the same exception with
the same message.
"""

import math

import numpy as np
import pytest

import myga.fixed_point as fixed_point_mod
import numpy_reference as ref
from fixed_point_reference import MixtureWeights
from myga.fixed_point import _solve, mixture_residual
from myga.policy import build_threshold_grid
from myga.policy import Play, threshold_advice_at
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
        if isinstance(theirs, np.ndarray) and theirs.ndim == 2:   # the advice matrix
            assert isinstance(mine, np.ndarray) and mine.dtype == theirs.dtype
            assert mine.shape == theirs.shape
        elif isinstance(theirs, np.ndarray):   # an arm vector: a list of Python numbers
            entry = float if theirs.dtype.kind == "f" else int
            assert isinstance(mine, list) and all(type(x) is entry for x in mine)
            mine = np.array(mine, dtype=theirs.dtype)
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
            got = outcome(_solve, zeta.tolist(), pivot, weights, grid.tolist())
            assert_same(num_arms, got, outcome(ref.solve, zeta, pivot, weights, grid))
            q = got[1][0]
            for candidate in (q, zeta):
                assert_same(num_arms,
                            outcome(mixture_residual, candidate, zeta, pivot, weights, grid),
                            outcome(ref.mixture_residual, candidate, zeta, pivot, weights, grid))

    def test_nan_share_fails_the_residual_check(self):
        zeta, grid = np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.2])
        weights = MixtureWeights(float("nan"), np.array([0.25, 0.25]))
        got = outcome(_solve, zeta.tolist(), 1, weights, grid.tolist())
        assert got[0] is RuntimeError and "residual nan" in got[1]
        assert_same(3, got, outcome(ref.solve, zeta, 1, weights, grid))

    def test_residual_without_majority_mass(self):
        args = (np.array([0.0, 1.0]), np.array([0.6, 0.4]), 1,
                MixtureWeights(0.5, np.array([0.5])), np.array([0.2]))
        assert_same(2, outcome(mixture_residual, *args), outcome(ref.mixture_residual, *args))


@pytest.fixture
def placements(monkeypatch):
    """Every mass the solver or the residual check places on the grid, in call order."""
    masses = []
    place = fixed_point_mod._place

    def record(grid, mass):
        masses.append(mass)
        return place(grid, mass)

    monkeypatch.setattr(fixed_point_mod, "_place", record)
    return masses


class TestExactTie:
    """A minority mass exactly on a threshold is truncated by it: (grid[b-1], grid[b]]."""

    # Dyadic shares: base 1/2 and 1/4 per threshold, thresholds 1/8 and 1/4.
    WEIGHTS = MixtureWeights(0.5, np.array([0.25, 0.25]))
    POINTS = [0.125, 0.25]

    @staticmethod
    def table_and_advice(zeta, solved):
        """The removed-mass table and the minority arm's threshold advice, from the placement."""
        q, below, residual = solved
        grid = TestExactTie.POINTS
        table = truncated_mass_table(q[1:], below, len(grid))
        play = Play(
            zeta_sorted=zeta,
            perm=ArmPermutation(forward=[0, 1], inverse=[0, 1]), pivot=1,
            q_sorted=q, p_sorted=q, p_original=q, thresholds=grid, dropped_table=table,
            majority_mass=q[0], minority_mass=q[1], residual=residual,
            below=below, iterations=sum(below))
        return table, threshold_advice_at(play, 1)

    def test_mass_grown_onto_a_threshold_stays_truncated(self, placements):
        # The arm starts at 1/2 * 3/8 = 3/16, crosses 1/8, and that
        # threshold's share lifts it to (3/16) / (3/4) = 1/4, exactly onto
        # the second threshold, which keeps removing it.
        zeta = [0.625, 0.375]
        got = _solve(zeta, 1, self.WEIGHTS, self.POINTS)
        assert_same(2, ("ok", got), outcome(ref.solve, np.array(zeta), 1, self.WEIGHTS,
                                            np.array(self.POINTS)))
        q, below, residual = got
        assert q == [0.75, 0.25] and below == [1] and residual == 0.0
        assert truncate(q, 1, 0.25) == [1.0, 0.0]
        # One search moved the arm from 3/16; the confirming pass found it in
        # the interval closed by 1/4 and made no search.  The last placement
        # is the residual check's, of the solved mass.
        assert placements == [0.1875, 0.25]
        # From 1/4 on the arm is removed: its mass is in the table there,
        # and those thresholds advise it 0.
        table, advice = self.table_and_advice(zeta, got)
        assert table == StepFunction([0, 1], [0.0, 0.25])
        assert advice == StepFunction([0, 1], [0.25, 0.0])

    def test_base_mass_on_the_first_threshold_needs_no_search(self, placements):
        zeta = [0.75, 0.25]
        got = _solve(zeta, 1, self.WEIGHTS, self.POINTS)
        assert_same(2, ("ok", got), outcome(ref.solve, np.array(zeta), 1, self.WEIGHTS,
                                            np.array(self.POINTS)))
        assert got[0] == [0.875, 0.125] and got[1] == [0]
        assert placements == [0.125]   # the residual check's only
        table, advice = self.table_and_advice(zeta, got)
        assert table == StepFunction([0], [0.125])
        assert advice == StepFunction([0], [0.0])


class ZeroThresholdShares:
    """A base share of 1 and no threshold weight, recording each prefix length asked for."""

    base = 1.0

    def __init__(self):
        self.asked = []

    def split(self, n):
        self.asked.append(n)
        return 0.0, 0.0


class TestGridPlacement:
    """Both placements on the grid list are NumPy's ``searchsorted(grid, mass, side="left")``.

    The solver's ``below`` and the residual check's prefix reads must both
    count the thresholds strictly below a mass: a mass on a threshold is
    not above it, and a NaN mass is above every threshold, where NumPy's
    search orders it.  With no threshold weight a mass solves to itself,
    so the solver's placement of any mass can be read from ``below``.
    """

    GRIDS = {
        "lattice": build_threshold_grid(0.05, 40).tolist(),
        "random": np.unique(np.random.default_rng(5).uniform(1e-4, 0.5, size=30)).tolist(),
        "one": [0.25],
        "dyadic": [0.125, 0.25],
    }

    @staticmethod
    def masses(grid):
        """0, 1/2, every threshold and its two neighbours, and random masses."""
        points = np.array(grid)
        special = [0.0, 0.5, *points, *np.nextafter(points, 0.0), *np.nextafter(points, 1.0)]
        rng = np.random.default_rng(len(grid))
        return [float(x) for x in special] + rng.uniform(0.0, 0.5, size=50).tolist()

    @pytest.mark.parametrize("name", GRIDS)
    def test_solver_places_like_numpy(self, name):
        grid = self.GRIDS[name]
        for x in self.masses(grid):
            q, below, residual = _solve([1.0 - x, x], 1, ZeroThresholdShares(), grid)
            assert q[1] == x and residual == 0.0
            assert below == np.searchsorted(grid, [x], side="left").tolist(), x

    @pytest.mark.parametrize("name", GRIDS)
    def test_solver_places_nan_after_every_threshold(self, name, growth_passes):
        grid = self.GRIDS[name]
        with pytest.raises(RuntimeError, match="residual nan"):
            _solve([0.5, math.nan], 1, ZeroThresholdShares(), grid)
        assert growth_passes[-1][1] == [len(grid)]
        assert np.searchsorted(grid, [math.nan], side="left").tolist() == [len(grid)]

    @pytest.mark.parametrize("name", GRIDS)
    def test_residual_places_like_numpy(self, name):
        grid = self.GRIDS[name]
        masses = self.masses(grid) + [math.nan]
        shares = ZeroThresholdShares()
        for x in masses:
            mixture_residual([1.0 - x, x], [1.0 - x, x], 1, shares, grid)
        assert shares.asked == np.searchsorted(grid, masses, side="left").tolist()


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
