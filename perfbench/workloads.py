"""Workload definitions shared by the bench command and its child processes.

Importing this module loads neither numpy nor myga, so a child process
can start its set-up clock before either is imported.
"""

from __future__ import annotations

import os

REPLAY_ROUNDS = 40_000
REPLAY_ARMS = 3
REPLAY_EXPERTS = 4

# Each workload is the keyword arguments of ``myga.cli.ExperimentConfig``
# minus the seed list, which ``seed_list`` derives from the bench seed.
WORKLOADS = {
    # Heaviest gap_family cell: grid of 7698 thresholds, so the
    # grid-proportional layers (weights, solve, truncation) dominate.
    "gap_wide_grid": dict(
        policy="myga", env="stochastic_gap", num_arms=2, num_experts=4,
        horizon=10_000, mu_star=0.16, delta=0.2, l_star=1600.0, audit=True),
    # Criterion-4 cell on the lattice: grid of 400, ties on the threshold
    # lattice, per-call overhead (generation, validation, audit) dominates.
    "minority_lattice": dict(
        policy="myga", env="adversarial_minority", num_arms=5, num_experts=8,
        horizon=2000, eta=0.2, gamma=0.4, grid_denominator=4000, audit=True),
    # Baseline on a parsed replay with CSV output: the only workload that
    # runs baselines, parses a file and writes CSV; no solver at all.
    "replay_csv_exp4": dict(
        policy="exp4_threshold", env="replay", num_arms=REPLAY_ARMS,
        num_experts=REPLAY_EXPERTS, horizon=REPLAY_ROUNDS, audit=True),
}

SEEDS_PER_RUN = {"gap_wide_grid": 1, "minority_lattice": 5, "replay_csv_exp4": 2}


def seed_list(workload: str, seed: int) -> tuple[int, ...]:
    """Disjoint seed lists for distinct bench seeds."""
    count = SEEDS_PER_RUN[workload]
    return tuple(count * seed + i for i in range(count))


def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Make the workload's inputs from the seed and return its config kwargs.

    The replay workload's file is generated here, before any timing, from
    the ``zero_loss_expert`` environment with the bench seed.
    """
    kwargs = dict(WORKLOADS[workload], seeds=seed_list(workload, seed))
    if kwargs["env"] == "replay":
        from myga.environments import EnvSpec, generate, save_replay
        spec = EnvSpec(kind="zero_loss_expert", num_arms=REPLAY_ARMS,
                       num_experts=REPLAY_EXPERTS, horizon=REPLAY_ROUNDS, seed=seed)
        path = os.path.join(workdir, "replay.txt")
        save_replay(path, [generate(spec, t) for t in range(1, REPLAY_ROUNDS + 1)])
        kwargs["replay_path"] = path
        kwargs["out"] = os.path.join(workdir, "run")
    return kwargs

