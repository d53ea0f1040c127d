"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``;
the pytest verdict carries the same information) and then asserts.
Tolerances and sizes are fixed here and should not be loosened.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from fixed_point_reference import two_arm_fixed_point
from grid_reference import zero_boundaries
from myga.cli import ExperimentConfig, execute
from myga.fixed_point import MixtureWeights, mixture_residual, solve_fixed_point
from myga.policy import loss_estimate
from myga.truncation import truncate

GOLDEN_Q = np.array([0.2, 0.1, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])
GOLDEN_PIVOT = 3
GOLDEN_ROWS = [
    (0.0, GOLDEN_Q),
    (0.02, GOLDEN_Q),
    (0.03, np.array([0.224, 0.112, 0.224, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.0, 0.0])),
    (0.04, np.array([0.24, 0.12, 0.24, 0.1, 0.1, 0.1, 0.05, 0.05, 0.0, 0.0, 0.0])),
    (0.05, np.array([0.28, 0.14, 0.28, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])),
    (0.1, np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
    (0.2, np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
    (0.5, np.array([0.4, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
]

ZERO_LOSS_BOUND = 211.93269466192146
GAP_BOUNDS = {0.01: 672.2941772621944, 0.04: 1132.6556598624675,
              0.16: 2053.3786250630132}


def _record(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    return ok


def _random_instance(rng):
    num_arms = int(rng.integers(2, 17))
    zeta = np.sort(rng.dirichlet(np.ones(num_arms)))[::-1]
    pivot = int(np.searchsorted(np.cumsum(zeta), 0.5, side="left")) + 1
    grid = np.unique(rng.uniform(1e-4, 0.5, size=int(rng.integers(1, 65))))
    shares = rng.dirichlet(np.full(grid.size + 1, float(rng.uniform(0.5, 3.0))))
    shares = np.maximum(shares, 1e-6)
    shares = shares / shares.sum()
    return zeta, pivot, MixtureWeights(float(shares[0]), shares[1:]), grid


@pytest.fixture(scope="module")
def gap_family():
    """Ten-seed runs of the gap environment at each loss budget, shared by
    the first-order and baseline-contrast checks."""
    results = {}
    for mu_star in (0.01, 0.04, 0.16):
        config = ExperimentConfig(
            policy="myga", env="stochastic_gap", num_arms=2, num_experts=4,
            horizon=10000, seeds=tuple(range(10)), l_star=mu_star * 10000,
            mu_star=mu_star, delta=0.2)
        results[mu_star] = execute(config)
    return results


def test_criterion_1_golden_truncation():
    worst = 0.0
    for threshold, expected in GOLDEN_ROWS:
        out = truncate(GOLDEN_Q, GOLDEN_PIVOT, threshold)
        worst = max(worst, float(np.max(np.abs(out - expected))))
    ok = worst <= 1e-12
    assert _record(1, "golden truncation rows", ok, f"max entry error {worst:.2e}")


def test_criterion_2_fixed_point_contract(growth_passes):
    rng = np.random.default_rng(2024)
    started = time.time()
    worst_residual = 0.0
    for _ in range(1000):
        zeta, pivot, weights, grid = _random_instance(rng)
        growth_passes.clear()
        q, iterations = solve_fixed_point(zeta, pivot, weights, grid)
        worst_residual = max(worst_residual,
                             mixture_residual(q, zeta, pivot, weights, grid))
        assert iterations <= zeta.size * grid.size
        for q_min, _ in growth_passes:
            assert np.all(np.diff(q_min) <= 1e-12)
        boundary = zero_boundaries(growth_passes[-1][1], pivot, grid.size)
        minority_index = np.arange(pivot, zeta.size)
        for j, s in enumerate(grid):
            np.testing.assert_array_equal(q[pivot:] > s,
                                          boundary[j] > minority_index)
    elapsed = time.time() - started
    ok = worst_residual <= 1e-9
    assert _record(2, "fixed-point contract, 1000 instances", ok,
                   f"max residual {worst_residual:.2e}, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3033)
    worst = 0.0
    for _ in range(1000):
        minority = float(rng.uniform(1e-6, 0.5))
        zeta = np.array([1.0 - minority, minority])
        grid = np.unique(rng.uniform(1e-4, 0.5, size=int(rng.integers(1, 65))))
        shares = rng.dirichlet(np.ones(grid.size + 1))
        shares = np.maximum(shares, 1e-6)
        shares = shares / shares.sum()
        weights = MixtureWeights(float(shares[0]), shares[1:])
        q, _ = solve_fixed_point(zeta, 1, weights, grid)
        oracle = two_arm_fixed_point(minority, weights, grid)
        worst = max(worst, abs(float(q[1]) - oracle))
    ok = worst <= 1e-9
    assert _record(3, "two-arm oracle equivalence, 1000 instances", ok,
                   f"max gap {worst:.2e}")


def test_criterion_4_invariant_suite():
    started = time.time()
    total_violations = 0
    runs = 0
    for env in ("zero_loss_expert", "stochastic_gap", "adversarial_minority"):
        for num_arms in (2, 3, 5):
            for num_experts in (2, 8):
                config = ExperimentConfig(
                    policy="myga", env=env, num_arms=num_arms,
                    num_experts=num_experts, horizon=2000,
                    seeds=tuple(range(10)), eta=0.2, gamma=0.4,
                    grid_denominator=4000)
                result = execute(config)
                runs += len(result.seed_results)
                total_violations += sum(len(r.violations)
                                        for r in result.seed_results)
    elapsed = time.time() - started
    ok = total_violations == 0
    assert _record(4, f"audit suite over {runs} runs", ok,
                   f"{total_violations} violations, {elapsed:.0f}s")


def test_criterion_5_estimator_unbiasedness():
    rng = np.random.default_rng(5055)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        num_arms = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(num_arms))
        p[rng.random(num_arms) < 0.25] = 0.0
        if p.sum() == 0.0:
            continue
        p = p / p.sum()
        losses = rng.uniform(0.0, 1.0, size=num_arms)
        mean = np.zeros(num_arms)
        for arm in range(num_arms):
            if p[arm] > 0.0:
                mean[arm] += p[arm] * loss_estimate(p, arm, float(losses[arm]))
        truncated = np.where(p > 0.0, losses, 0.0)
        worst = max(worst, float(np.max(np.abs(mean - truncated))))
        pairs += 1
    ok = worst <= 1e-12
    assert _record(5, "estimator unbiasedness, 100 pairs", ok,
                   f"max deviation {worst:.2e}")


def test_criterion_6_first_order_regret(gap_family):
    config = ExperimentConfig(
        policy="myga", env="zero_loss_expert", num_arms=2, num_experts=4,
        horizon=10000, seeds=tuple(range(10)), l_star=0.0)
    zero_loss = execute(config)
    zero_mean = float(np.mean([r.report.regret for r in zero_loss.seed_results]))
    ok = zero_mean <= ZERO_LOSS_BOUND

    gap_means = {}
    for mu_star, bound in GAP_BOUNDS.items():
        mean = float(np.mean([r.report.regret
                              for r in gap_family[mu_star].seed_results]))
        gap_means[mu_star] = mean
        ok = ok and mean <= bound
    ordered = [gap_means[mu] for mu in (0.01, 0.04, 0.16)]
    ratios = [ordered[1] / ordered[0], ordered[2] / ordered[1]]
    ok = ok and ordered[0] <= ordered[1] <= ordered[2]
    ok = ok and all(r <= 3.0 for r in ratios)
    detail = (f"zero-loss mean {zero_mean:.1f} <= {ZERO_LOSS_BOUND:.1f}; "
              f"gap means {ordered[0]:.1f}/{ordered[1]:.1f}/{ordered[2]:.1f}, "
              f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    assert _record(6, "first-order regret growth", ok, detail)


def test_criterion_7_baseline_contrast(gap_family):
    reference = gap_family[0.01]
    myga_mean = float(np.mean([r.report.regret
                               for r in reference.seed_results]))
    eta = reference.seed_results[0].eta
    gamma = reference.seed_results[0].gamma
    config = ExperimentConfig(
        policy="exp4_threshold", env="stochastic_gap", num_arms=2,
        num_experts=4, horizon=10000, seeds=tuple(range(10)),
        l_star=100.0, mu_star=0.01, delta=0.2, eta=eta, gamma=gamma)
    baseline = execute(config)
    baseline_mean = float(np.mean([r.report.regret
                                   for r in baseline.seed_results]))
    ahead = baseline_mean >= myga_mean
    status = "PASS" if ahead else "FLAG"
    # Informational: record the comparison but never fail the build on it.
    print(f"[criterion 7] baseline contrast: {status} "
          f"(thresholded exp4 mean {baseline_mean:.1f} vs myga {myga_mean:.1f})")
    assert True


def test_criterion_8_csv_byte_determinism(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "policy=myga\nenv=zero_loss_expert\narms=2\nexperts=4\nhorizon=200\n"
        "seeds=0,1\neta=0.3\ngamma=0.05\ngrid_denominator=400\n")
    payloads = []
    for label in ("first", "second"):
        prefix = str(tmp_path / label)
        proc = subprocess.run(
            [sys.executable, "-m", "myga.cli", "--config", str(config_path),
             "--out", prefix],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rounds = open(prefix + "_rounds.csv", "rb").read()
        summary = open(prefix + "_summary.csv", "rb").read()
        assert len(rounds.splitlines()) == 1 + 2 * 200
        payloads.append((rounds, summary))
    ok = payloads[0] == payloads[1]
    assert _record(8, "CLI byte determinism", ok,
                   f"{len(payloads[0][0])} round bytes compared")
