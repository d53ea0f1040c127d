"""The generated rounds rebuilt one scalar at a time, and the joined replay
writer, as references.

The package draws each chunk of 1024 rounds from the generator of
``[seed, 2**41, chunk]``, one call per random block, and builds every row
of the chunk with whole-array operations.  Here the same blocks are drawn
from the same generator, and round t's row is built with Python loops
over experts and arms: the clean arm, the favoured arm's lattice steps
and the good arm one entry at a time.  Generated rounds must equal them
byte for byte.  The package writes a replay file a round at a time;
``save_replay`` here builds the whole text first, and the bytes must be
the same.
"""

import numpy as np

CHUNK = 1024
CHUNK_SALT = 2 ** 41


def chunk_row(spec, t):
    """A fresh generator of round t's chunk, and the row of round t in it."""
    chunk, row = divmod(t - 1, CHUNK)
    return np.random.default_rng([spec.seed, CHUNK_SALT, chunk]), row


def zero_loss_expert_round(spec, t):
    rng, row = chunk_row(spec, t)
    num_arms, num_experts = spec.num_arms, spec.num_experts
    clean_arms = rng.integers(num_arms, size=CHUNK)
    dirichlet = rng.dirichlet(np.ones(num_arms), size=(CHUNK, num_experts))
    uniforms = rng.random((CHUNK, num_arms))
    clean_arm = int(clean_arms[row])
    advices = [[float(dirichlet[row, e, a]) for a in range(num_arms)]
               for e in range(num_experts)]
    advices[0] = [1.0 if a == clean_arm else 0.0 for a in range(num_arms)]
    losses = [0.0 if a == clean_arm else float(uniforms[row, a]) for a in range(num_arms)]
    return np.array(advices), np.array(losses)


def stochastic_gap_round(spec, t):
    rng, row = chunk_row(spec, t)
    num_arms, num_experts = spec.num_arms, spec.num_experts
    uniforms = rng.random((CHUNK, num_arms))
    means = [min(spec.mu_star + spec.delta * a, 1.0) for a in range(num_arms)]
    losses = [1.0 if uniforms[row, a] < means[a] else 0.0 for a in range(num_arms)]
    advices = [[1.0 if a == e % num_arms else 0.0 for a in range(num_arms)]
               for e in range(num_experts)]
    return np.array(advices), np.array(losses)


def adversarial_minority_round(spec, t):
    rng, row = chunk_row(spec, t)
    num_arms, num_experts = spec.num_arms, spec.num_experts
    lattice = 2 * spec.horizon
    band = max(1, lattice // (4 * max(num_arms - 1, 1)))
    draws = rng.integers(0, band + 1, size=(CHUNK, num_experts, num_arms))
    uniforms = rng.random((CHUNK, num_arms))
    advices = []
    for e in range(num_experts):
        steps = [int(draws[row, e, a]) for a in range(num_arms)]
        favored = e % num_arms
        steps[favored] = lattice - (sum(steps) - steps[favored])
        advices.append([step / lattice for step in steps])
    block = max(1, int(round(spec.horizon ** 0.5)))
    good_arm = ((t - 1) // block) % num_arms
    losses = [0.0 if a == good_arm else (1.0 if uniforms[row, a] < 0.6 else 0.0)
              for a in range(num_arms)]
    return np.array(advices), np.array(losses)


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
