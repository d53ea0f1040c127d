"""The generated rounds drawn from ``np.random.default_rng([seed, t])``, and
the joined replay writer, as references.

The package seeds each round's generator from a precomputed hash table
and builds fixed parts of a round once; these are the same rounds
written the direct way, one ``SeedSequence`` per round and every array
built in the round.  Generated rounds must equal them byte for byte.
The package writes a replay file a round at a time; ``save_replay``
here builds the whole text first, and the bytes must be the same.
"""

import numpy as np


def zero_loss_expert_round(spec, t):
    rng = np.random.default_rng([spec.seed, t])
    clean_arm = int(rng.integers(spec.num_arms))
    advices = rng.dirichlet(np.ones(spec.num_arms), size=spec.num_experts)
    advices[0] = 0.0
    advices[0, clean_arm] = 1.0
    losses = rng.uniform(0.0, 1.0, size=spec.num_arms)
    losses[clean_arm] = 0.0
    return advices, losses


def stochastic_gap_round(spec, t):
    rng = np.random.default_rng([spec.seed, t])
    means = np.minimum(spec.mu_star + spec.delta * np.arange(spec.num_arms), 1.0)
    losses = (rng.uniform(size=spec.num_arms) < means).astype(float)
    advices = np.zeros((spec.num_experts, spec.num_arms))
    advices[np.arange(spec.num_experts), np.arange(spec.num_experts) % spec.num_arms] = 1.0
    return advices, losses


def adversarial_minority_round(spec, t):
    """Drawn one expert at a time, the order one call for all rows takes."""
    rng = np.random.default_rng([spec.seed, t])
    lattice = 2 * spec.horizon
    band = max(1, lattice // (4 * max(spec.num_arms - 1, 1)))
    advices = np.empty((spec.num_experts, spec.num_arms))
    for e in range(spec.num_experts):
        steps = rng.integers(0, band + 1, size=spec.num_arms)
        favored = e % spec.num_arms
        steps[favored] = 0
        steps[favored] = lattice - int(steps.sum())
        advices[e] = steps / lattice
    block = max(1, int(round(spec.horizon ** 0.5)))
    good_arm = ((t - 1) // block) % spec.num_arms
    losses = (rng.uniform(size=spec.num_arms) < 0.6).astype(float)
    losses[good_arm] = 0.0
    return advices, losses


ROUNDS = {
    "zero_loss_expert": zero_loss_expert_round,
    "stochastic_gap": stochastic_gap_round,
    "adversarial_minority": adversarial_minority_round,
}


def save_replay(path, rounds):
    """The replay writer that builds every line first and writes one joined string."""
    if not rounds:
        raise ValueError("cannot save an empty replay")
    num_experts, num_arms = rounds[0].advices.shape
    lines = [f"{num_arms} {num_experts} {len(rounds)}"]
    for data in rounds:
        if data.advices.shape != (num_experts, num_arms) or data.losses.shape != (num_arms,):
            raise ValueError("inconsistent round shapes in replay")
        lines.append(" ".join(repr(float(v)) for v in data.losses))
        for row in data.advices:
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
