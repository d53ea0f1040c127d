"""The round's helpers against their earlier bodies in ``helper_reference``, bit for bit.

The helpers that a distinct play and its audit run were rewritten for
the interpreter: their totals and conversions became plain loops.  The
rewrite changes no operation and no order of operations, so on every
input each helper must return what its earlier body returned, floats
compared by their bits, and raise the same exception with the same
message.  The inputs are seeded: ties, zeros of both signs, NaN and
infinities, arm counts below and from eight (where NumPy's sums change
their order) and spoiled contracts.
"""

import dataclasses
import math

import numpy as np
import pytest

import helper_reference as ref
from myga.audit import check_round
from myga.environments import EnvSpec, generate
from myga.fixed_point import MixtureWeights, _solve, mixture_residual
from myga.policy import MygaConfig, MygaPolicy, WeightState
from myga.simplex import pivot_index, sample_index, sort_descending, weighted_average
from myga.truncation import StepFunction, truncate
from round_protocol import bits

ARM_COUNTS = (1, 2, 3, 5, 7, 8, 9, 12, 16)
SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, -0.25, 5e-324, 0.5, 1.5e308)


def outcome(fn, *args):
    """("ok", the result's bits) or (exception type, message)."""
    try:
        return "ok", bits(fn(*args))
    except Exception as exc:   # noqa: BLE001 - any exception must be the reference's
        return type(exc), str(exc)


def same(fn, reference, *args):
    got, want = outcome(fn, *args), outcome(reference, *args)
    assert got == want, args
    return got


def distributions(rng, num_arms, count):
    """Lists of ``num_arms`` floats: distributions, lattice ties, zeros of both signs, spoiled."""
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:      # a Dirichlet distribution
            values = rng.dirichlet(np.full(num_arms, rng.choice([0.2, 1.0, 5.0])))
        elif kind == 1:    # masses on a 1/8 lattice: exact ties and exact zeros
            counts = rng.integers(0, 4, size=num_arms).astype(float)
            counts[rng.integers(num_arms)] += 1.0
            values = counts / counts.sum()
        elif kind == 2:    # zeros of both signs among the masses
            values = rng.dirichlet(np.ones(num_arms))
            values[rng.random(num_arms) < 0.4] = 0.0
            values = values / max(values.sum(), 1e-300)
            values[(values == 0.0) & (rng.random(num_arms) < 0.5)] = -0.0
        elif kind == 3:    # every mass equal
            values = np.full(num_arms, 1.0 / num_arms)
        else:              # a distribution with one special value placed
            values = rng.dirichlet(np.ones(num_arms))
            values[rng.integers(num_arms)] = SPECIALS[int(rng.integers(len(SPECIALS)))]
        out.append(values.tolist())
    return out


def descending(values):
    """The values in non-increasing order, NaN last, as the package sorts them."""
    return ref.sort_descending(values)[0]


@pytest.mark.parametrize("num_arms", ARM_COUNTS)
class TestSimplexHelpers:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_weighted_average(self, num_arms):
        # NaN and infinite advice or weights are compared too.
        rng = np.random.default_rng(100 + num_arms)
        for experts in (1, 3, 8):
            rows = distributions(rng, num_arms, 5 * experts)
            for start in range(0, len(rows), experts):
                advices = np.array(rows[start:start + experts])
                weights = np.exp(-rng.uniform(0.0, 700.0, size=experts))
                weights[rng.random(experts) < 0.2] = 1e-300
                same(weighted_average, ref.weighted_average, advices, weights)
                same(weighted_average, ref.weighted_average, advices.tolist(), weights.tolist())
                spoiled = weights.copy()
                spoiled[rng.integers(experts)] = SPECIALS[int(rng.integers(len(SPECIALS)))]
                same(weighted_average, ref.weighted_average, advices, spoiled)
            same(weighted_average, ref.weighted_average, np.zeros((experts, num_arms)),
                 np.ones(experts))
            same(weighted_average, ref.weighted_average, np.ones(num_arms), np.ones(1))
            same(weighted_average, ref.weighted_average, np.ones((experts, num_arms)),
                 np.ones(experts + 1))

    def test_sort_pivot_sample_and_back(self, num_arms):
        rng = np.random.default_rng(200 + num_arms)
        for values in distributions(rng, num_arms, 60):
            for given in (values, np.array(values)):
                got = same(sort_descending, ref.sort_descending, given)
                ordered, perm = sort_descending(given)
                assert got[0] == "ok"
                same(perm.to_original, lambda v: ref.to_original(perm, v), ordered)
                same(perm.to_original, lambda v: ref.to_original(perm, v), np.array(ordered))
                same(pivot_index, ref.pivot_index, ordered)
                same(pivot_index, ref.pivot_index, given)   # unsorted inputs fail alike
                for u in (0.0, 0.3, 0.5, float(rng.random()), 1.0 - 2.0 ** -53):
                    same(sample_index, ref.sample_index, given, u)

    def test_pivot_of_non_monotone_prefix_sums(self, num_arms):
        # Negative masses make the prefix sums rise and fall again: the pivot
        # is then wherever the binary search over them lands.
        rng = np.random.default_rng(300 + num_arms)
        for _ in range(40):
            values = sorted(rng.uniform(-0.4, 0.6, size=num_arms).tolist(), reverse=True)
            same(pivot_index, ref.pivot_index, values)
        same(pivot_index, ref.pivot_index, [])
        same(sample_index, ref.sample_index, [], 0.5)


@pytest.mark.parametrize("num_arms", ARM_COUNTS)
def test_truncate(num_arms):
    rng = np.random.default_rng(400 + num_arms)
    for values in distributions(rng, num_arms, 50):
        q = descending(values)
        finite = [x for x in q if math.isfinite(x) and 0.0 <= x <= 0.5]
        # Thresholds on masses of the input hit the exact-tie rule.
        for threshold in (0.0, 0.5, float(rng.uniform(0.0, 0.5)), *finite[:3], -0.1, 0.6):
            for pivot in range(0, num_arms + 2):
                same(truncate, ref.truncate, q, pivot, threshold)
        same(truncate, ref.truncate, np.array(q), 1, 0.25)
        for pivot in range(1, num_arms + 1):   # unsorted, so some majority has no mass
            same(truncate, ref.truncate, values, pivot, 0.25)


def charged_state(rng, size, experts):
    """A ``WeightState`` after a few random charges, rebased."""
    state = WeightState(size, float(rng.uniform(0.05, 1.0)), experts)
    for _ in range(int(rng.integers(1, 6))):
        if size:
            breaks = sorted({0, *rng.integers(0, size, size=3).tolist()})
            state.charge(StepFunction(breaks, rng.uniform(0.0, 3.0, len(breaks)).tolist()))
        state.real_loss[...] += rng.uniform(0.0, 3.0, experts)
    state.weights()
    return state


@pytest.mark.parametrize("size", (0, 1, 2, 5, 16, 17, 400))
def test_weight_state_split(size):
    rng = np.random.default_rng(500 + size)
    for _ in range(5):
        state = charged_state(rng, size, 3)
        for n in range(size + 1):
            assert bits(state.split(n)) == bits(ref.split(state, n))


def shares(rng, size):
    """Weights for the solver: a policy's state or normalized ``MixtureWeights``."""
    if rng.random() < 0.5:
        return charged_state(rng, size, 2)
    raw = rng.exponential(size=size + 1)
    raw[rng.random(size + 1) < 0.3] *= 1e-6
    raw /= raw.sum()
    return MixtureWeights(float(raw[0]), raw[1:])


@pytest.mark.parametrize("num_arms", ARM_COUNTS[1:])
def test_solve_and_residual(num_arms):
    rng = np.random.default_rng(600 + num_arms)
    grids = {
        "empty": [],
        "one": [0.25],
        "lattice": (np.arange(1, 21) / 40.0).tolist(),
        "random": np.unique(rng.uniform(1e-4, 0.5, size=30)).tolist(),
    }
    for values in distributions(rng, num_arms, 40):
        zeta = descending(values)
        usable = all(math.isfinite(x) and x >= 0.0 for x in zeta) and sum(zeta) > 0.0
        for grid in grids.values():
            weights = shares(rng, len(grid))
            if usable:   # the solver trusts its inputs: a mixture and its pivot
                pivot = pivot_index(zeta)
                got = same(_solve, ref.solve, zeta, pivot, weights, grid)
                if got[0] == "ok":
                    q = _solve(zeta, pivot, weights, grid)[0]
                    same(mixture_residual, ref.mixture_residual, q, zeta, pivot, weights,
                         np.array(grid))
            # The residual of any vectors, NaN and infinities included.
            q = descending(distributions(rng, num_arms, 5)[int(rng.integers(5))])
            for pivot in (1, num_arms // 2 or 1, num_arms):
                same(mixture_residual, ref.mixture_residual, q, zeta, pivot, weights, grid)
                same(mixture_residual, ref.mixture_residual, np.array(q), np.array(zeta),
                     pivot, weights, grid)


class ExhaustedShares:
    """Shares whose kept weight reaches 1 once an arm crosses a threshold."""

    base = 0.5

    def split(self, n):
        return (1.0 if n else 0.0), 0.0


def test_solver_errors_match():
    zeta = [0.6, 0.25, 0.15]
    same(_solve, ref.solve, zeta, 1, ExhaustedShares(), [0.01, 0.02])
    nan_shares = MixtureWeights(math.nan, np.array([0.25, 0.25]))
    same(_solve, ref.solve, [0.7, 0.2, 0.1], 1, nan_shares, [0.1, 0.2])
    same(mixture_residual, ref.mixture_residual, [0.0, 1.0], [0.6, 0.4], 1,
         MixtureWeights(0.5, np.array([0.5])), [0.2])


def policy_traces(num_arms, num_experts, kind, gamma, denominator, rounds, seed):
    cfg = MygaConfig(num_arms=num_arms, num_experts=num_experts, horizon=rounds, eta=0.3,
                     gamma=gamma, grid_denominator=denominator)
    spec = EnvSpec(kind=kind, num_arms=num_arms, num_experts=num_experts, horizon=rounds,
                   seed=seed)
    policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(seed))
    traces = []
    for t in range(1, rounds + 1):
        data = generate(spec, t)
        p, trace = policy.advise(data.advices)
        arm = policy.sample(p)
        policy.update(trace, arm, float(data.losses[arm]))
        traces.append((trace, gamma))
    return traces


@pytest.fixture(scope="module")
def traces():
    """Policy traces: the lattice cell, a two-arm cell, nine and twelve arms, an empty grid."""
    out = []
    out += policy_traces(5, 8, "adversarial_minority", 0.4, 4000, 60, 3)
    out += policy_traces(2, 4, "stochastic_gap", 0.01, 400, 60, 1)
    out += policy_traces(9, 6, "adversarial_minority", 0.2, 1000, 40, 2)
    out += policy_traces(12, 5, "zero_loss_expert", 0.05, 200, 40, 4)
    out += policy_traces(3, 2, "stochastic_gap", 0.5, 60, 20, 5)
    return out


def test_block_masses(traces):
    for trace, _ in traces:
        want = ref.block_masses(trace.q_sorted, trace.pivot)
        assert bits((trace.majority_mass, trace.minority_mass)) == bits(want)


def spoil(trace, rng):
    """A copy of ``trace`` with one to three entries or block masses replaced or moved."""
    play = dataclasses.replace(trace.play, zeta_sorted=list(trace.zeta_sorted),
                               q_sorted=list(trace.q_sorted), p_sorted=list(trace.p_sorted))
    copy = dataclasses.replace(trace, play=play)
    num_arms = len(play.zeta_sorted)
    for _ in range(int(rng.integers(1, 4))):
        target = int(rng.integers(4))
        if target == 3:   # a block mass, now and then a majority of no mass
            name = ("majority_mass", "minority_mass")[int(rng.integers(2))]
            factor = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.5))
            setattr(play, name, getattr(play, name) * factor)
            continue
        values = getattr(play, ("zeta_sorted", "q_sorted", "p_sorted")[target])
        arm = int(rng.integers(num_arms))
        if rng.random() < 0.2:
            values[arm] = SPECIALS[int(rng.integers(len(SPECIALS)))]
        else:
            values[arm] += float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -0.5))
    return copy


def test_check_round(traces):
    rng = np.random.default_rng(700)
    for trace, gamma in traces:
        num_arms = len(trace.zeta_sorted)
        for candidate in (trace, *(spoil(trace, rng) for _ in range(6))):
            same(check_round, ref.check_round, candidate, gamma, num_arms)
    # Finite masses whose total overflows: the finiteness rule must still pass them.
    for trace, gamma in traces[::50]:
        num_arms = len(trace.zeta_sorted)
        huge = dataclasses.replace(
            trace, play=dataclasses.replace(trace.play, zeta_sorted=[1e308] * num_arms))
        same(check_round, ref.check_round, huge, gamma, num_arms)
        assert "non_finite_trace" not in {v.rule for v in check_round(huge, gamma, num_arms)}
