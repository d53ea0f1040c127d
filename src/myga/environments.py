"""Seeded environments and the replay file format.

Every generated round is a pure function of (seed, t): the round gets
its own generator stream, so rounds can be produced in any order and
always reproduce byte-for-byte.  Losses live in [0, 1]; advice rows are
distributions over arms.  A generated round makes a fixed, small number
of NumPy calls whatever the expert count: each draw is one call for the
whole advice matrix or loss vector.

Replay files are plain text with LF line endings: a header line
``K num_experts T``, then per round one loss line followed by one
advice line per expert, all space-separated ``repr`` floats (lossless
round-trip).  Loaders report malformed content with 1-based line
numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import simplex

KINDS = ("zero_loss_expert", "stochastic_gap", "adversarial_minority", "replay")


@dataclass(frozen=True)
class EnvSpec:
    kind: str
    num_arms: int
    num_experts: int
    horizon: int
    seed: int
    mu_star: float = 0.1
    delta: float = 0.2
    replay_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} not one of {KINDS}")
        if self.num_arms < 2:
            raise ValueError("need at least 2 arms")
        if self.num_experts < 1:
            raise ValueError("need at least 1 expert")
        if self.horizon < 1:
            raise ValueError("need at least 1 round")
        if self.kind == "stochastic_gap":
            if not 0.0 <= self.mu_star <= 1.0 or self.delta < 0.0:
                raise ValueError("stochastic_gap needs mu_star in [0,1], delta >= 0")
        if self.kind == "replay" and not self.replay_path:
            raise ValueError("replay kind needs replay_path")


@dataclass
class RoundData:
    advices: np.ndarray
    losses: np.ndarray


def _round_rng(spec: EnvSpec, t: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, t])


def _zero_loss_expert_round(spec: EnvSpec, t: int) -> RoundData:
    rng = _round_rng(spec, t)
    clean_arm = int(rng.integers(spec.num_arms))
    advices = rng.dirichlet(np.ones(spec.num_arms), size=spec.num_experts)
    advices[0] = 0.0
    advices[0, clean_arm] = 1.0
    losses = rng.uniform(0.0, 1.0, size=spec.num_arms)
    losses[clean_arm] = 0.0
    return RoundData(advices=advices, losses=losses)


def _stochastic_gap_round(spec: EnvSpec, t: int) -> RoundData:
    rng = _round_rng(spec, t)
    means = np.minimum(spec.mu_star + spec.delta * np.arange(spec.num_arms), 1.0)
    losses = (rng.uniform(size=spec.num_arms) < means).astype(float)
    advices = np.zeros((spec.num_experts, spec.num_arms))
    advices[np.arange(spec.num_experts), np.arange(spec.num_experts) % spec.num_arms] = 1.0
    return RoundData(advices=advices, losses=losses)


def _adversarial_minority_round(spec: EnvSpec, t: int) -> RoundData:
    """Advice masses land exactly on the 1/(2T) lattice near the truncation
    thresholds, so sorted minority arms keep grazing the zero boundary."""
    rng = _round_rng(spec, t)
    lattice = 2 * spec.horizon
    band = max(1, lattice // (4 * max(spec.num_arms - 1, 1)))
    # Expert e favours arm e mod K, which takes whatever the other arms'
    # draws leave of the lattice.  The draws come row by row from one
    # call, the order in which one call per expert would take them.
    steps = rng.integers(0, band + 1, size=(spec.num_experts, spec.num_arms))
    experts = np.arange(spec.num_experts)
    favored = experts % spec.num_arms
    steps[experts, favored] = lattice - (steps.sum(axis=1) - steps[experts, favored])
    advices = steps / lattice
    block = max(1, int(round(spec.horizon ** 0.5)))
    good_arm = ((t - 1) // block) % spec.num_arms
    losses = (rng.uniform(size=spec.num_arms) < 0.6).astype(float)
    losses[good_arm] = 0.0
    return RoundData(advices=advices, losses=losses)


# path -> ((st_mtime_ns, st_size) at parse time, parsed rounds), oldest first.
_REPLAY_CACHE: dict[str, tuple[tuple[int, int], tuple[RoundData, ...]]] = {}
_REPLAY_CACHE_SIZE = 8


def _load_replay_cached(path: str, restat: bool) -> tuple[RoundData, ...]:
    """Parsed rounds of a replay file, reparsed when its mtime or size changed.

    The file is stat'ed only when ``restat`` is set, which ``generate`` does
    at round 1 of every run: a stat costs a noticeable share of a replay
    round, and a file rewritten in the middle of a run is not followed.  A
    rewrite that keeps the size within the file system's timestamp
    granularity is not seen either.
    """
    entry = _REPLAY_CACHE.get(path)
    if entry is None or restat:
        info = os.stat(path)
        stamp = (info.st_mtime_ns, info.st_size)
        if entry is None or entry[0] != stamp:
            _REPLAY_CACHE.pop(path, None)
            if len(_REPLAY_CACHE) >= _REPLAY_CACHE_SIZE:
                del _REPLAY_CACHE[next(iter(_REPLAY_CACHE))]
            entry = _REPLAY_CACHE[path] = (stamp, tuple(load_replay(path)))
    return entry[1]


def generate(spec: EnvSpec, t: int) -> RoundData:
    """Round t (1-based) of the environment, a pure function of (seed, t)."""
    if not 1 <= t <= spec.horizon:
        raise ValueError(f"round {t} outside [1, {spec.horizon}]")
    if spec.kind == "zero_loss_expert":
        return _zero_loss_expert_round(spec, t)
    if spec.kind == "stochastic_gap":
        return _stochastic_gap_round(spec, t)
    if spec.kind == "adversarial_minority":
        return _adversarial_minority_round(spec, t)
    rounds = _load_replay_cached(spec.replay_path, restat=t == 1)
    if len(rounds) < spec.horizon:
        raise ValueError(
            f"replay {spec.replay_path} holds {len(rounds)} rounds, horizon is {spec.horizon}")
    data = rounds[t - 1]
    return RoundData(advices=data.advices.copy(), losses=data.losses.copy())


def _format_row(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_replay(path: str, rounds: list[RoundData]) -> None:
    """Write rounds to the replay text format (LF endings, repr floats)."""
    if not rounds:
        raise ValueError("cannot save an empty replay")
    num_experts, num_arms = rounds[0].advices.shape
    lines = [f"{num_arms} {num_experts} {len(rounds)}"]
    for data in rounds:
        if data.advices.shape != (num_experts, num_arms) or data.losses.shape != (num_arms,):
            raise ValueError("inconsistent round shapes in replay")
        lines.append(_format_row(data.losses))
        for row in data.advices:
            lines.append(_format_row(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_row(text: str, expected: int, line_no: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != expected:
        raise ValueError(f"line {line_no}: {what} has {len(parts)} values, expected {expected}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {what} holds a non-numeric value") from exc


def load_replay(path: str) -> list[RoundData]:
    """Parse a replay file, validating structure and reporting line numbers."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("line 1: empty replay file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("line 1: header must be 'num_arms num_experts num_rounds'")
    try:
        num_arms, num_experts, num_rounds = (int(h) for h in header)
    except ValueError as exc:
        raise ValueError("line 1: header holds a non-integer value") from exc
    if num_arms < 2 or num_experts < 1 or num_rounds < 1:
        raise ValueError("line 1: header values out of range")

    per_round = 1 + num_experts
    expected_lines = 1 + num_rounds * per_round
    if len(lines) < expected_lines:
        complete = (len(lines) - 1) // per_round
        raise ValueError(
            f"line {len(lines) + 1}: file truncated inside round {complete + 1}")
    if len(lines) > expected_lines:
        raise ValueError(f"line {expected_lines + 1}: trailing content after final round")

    rounds: list[RoundData] = []
    cursor = 1
    for r in range(num_rounds):
        line_no = cursor + 1
        losses = _parse_row(lines[cursor], num_arms, line_no, f"round {r + 1} losses")
        if np.any(losses < 0.0) or np.any(losses > 1.0):
            raise ValueError(f"line {line_no}: losses outside [0, 1]")
        cursor += 1
        advices = np.empty((num_experts, num_arms))
        for e in range(num_experts):
            line_no = cursor + 1
            row = _parse_row(lines[cursor], num_arms, line_no, f"round {r + 1} advice {e + 1}")
            if not simplex.validate(row):
                raise ValueError(f"line {line_no}: advice row is not a distribution")
            advices[e] = row
            cursor += 1
        rounds.append(RoundData(advices=advices, losses=losses))
    return rounds
