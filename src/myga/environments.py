"""Seeded environments and the replay file format.

Every generated round is a pure function of (seed, t), so rounds can be
produced in any order and always reproduce byte-for-byte.  The rounds are
drawn in chunks of 1024: rounds ``1024 c + 1 .. 1024 (c + 1)`` of a seed
come from the one generator ``np.random.default_rng([seed, 2**41, c])``,
which draws each random block of the chunk (every round's advice matrix,
every round's loss vector) in one call.  A round is a fresh, writable copy
of one row of its chunk.  Losses live in [0, 1]; advice rows are
distributions over arms.

Each advice row is checked once, where it is made, with one whole-array
rule (``simplex.distribution_rows``): a generated chunk's (C, E, K) block
when ``_chunk`` draws it, a replay's advices when the file is parsed.
So the rows ``generate`` returns are already checked, and the run's loop
plays them without checking them again.

Replay files are plain text with LF line endings: a header line
``K num_experts T``, then per round one loss line followed by one
advice line per expert, all space-separated ``repr`` floats (lossless
round-trip).  A parsed replay is two read-only arrays, parsed in one
vectorised call; a file that call cannot vouch for goes through the line
parser, which reports malformed content with 1-based line numbers.  A run
opens its replay once, with ``open_replay``, and its ``EnvSpec`` carries
the parsed ``Replay``: every seed plays the rounds read at set-up.
"""

from __future__ import annotations

import io
import math
import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import simplex

KINDS = ("zero_loss_expert", "stochastic_gap", "adversarial_minority", "replay")


@dataclass(frozen=True, eq=False)
class Replay:
    """A parsed replay: losses (T, K) and advices (T, E, K), both read-only."""
    losses: np.ndarray
    advices: np.ndarray

    def __post_init__(self) -> None:
        self.losses.flags.writeable = False
        self.advices.flags.writeable = False


@dataclass(frozen=True)
class EnvSpec:
    kind: str
    num_arms: int
    num_experts: int
    horizon: int
    seed: int
    mu_star: float = 0.1
    delta: float = 0.2
    replay: Replay | None = None

    def __post_init__(self) -> None:
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed {self.seed!r} is not an integer") from None
        if seed < 0:
            raise ValueError(f"seed {seed} is negative; seeds are non-negative integers")
        object.__setattr__(self, "seed", seed)
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} not one of {KINDS}")
        if self.num_arms < 2:
            raise ValueError("need at least 2 arms")
        if self.num_experts < 1:
            raise ValueError("need at least 1 expert")
        if self.horizon < 1:
            raise ValueError("need at least 1 round")
        if self.kind == "stochastic_gap":
            if not (0.0 <= self.mu_star <= 1.0 and 0.0 <= self.delta < math.inf):
                raise ValueError("stochastic_gap needs mu_star in [0,1], delta >= 0")
        if self.kind == "replay":
            if self.replay is None:
                raise ValueError("replay kind needs a parsed replay")
            rounds, num_experts, num_arms = self.replay.advices.shape
            if (num_arms, num_experts) != (self.num_arms, self.num_experts):
                raise ValueError(f"replay has {num_arms} arms and {num_experts} experts, "
                                 f"the run has {self.num_arms} and {self.num_experts}")
            if rounds < self.horizon:
                raise ValueError(f"replay holds {rounds} rounds, horizon is {self.horizon}")


@dataclass
class RoundData:
    advices: np.ndarray
    losses: np.ndarray


_CHUNK = 1024   # rounds per chunk

# The seed-stream keys.  A seed's chunk of rounds draws from
# ``[seed, _CHUNK_SALT, chunk]`` and its sample stream, made in ``cli``, from
# ``[seed, SAMPLE_STREAM_SALT]``.  SeedSequence hashes a key as the 32-bit
# words of its integers, zero-padded to four: the chunk key gives the seed's
# words, then 0 and 512, then the chunk's, where the sample key gives the
# seed's words, then 0 and 256.  While the chunk index fits one word (rounds
# below 2**42), no chunk key has the words of a sample key, nor of another
# chunk key.
SAMPLE_STREAM_SALT = 2 ** 40
_CHUNK_SALT = 2 ** 41


def _chunk(spec: EnvSpec, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Advices (C, E, K) and losses (C, K) of the rounds
    ``chunk * C + 1 .. (chunk + 1) * C``, read-only.

    They come from the generator of ``[seed, _CHUNK_SALT, chunk]``, one call
    per random block.  Every advice row is checked here, once, with the
    replay parser's whole-array rule; a row that is not a distribution is
    an internal invariant failure, a RuntimeError naming its round and
    expert.
    """
    rng = np.random.default_rng([spec.seed, _CHUNK_SALT, chunk])
    num_arms, num_experts = spec.num_arms, spec.num_experts
    rows = np.arange(_CHUNK)
    experts = np.arange(num_experts)
    if spec.kind == "zero_loss_expert":
        # Expert 0 points at the round's clean arm, which loses nothing.
        clean_arm = rng.integers(num_arms, size=_CHUNK)
        advices = rng.dirichlet(np.ones(num_arms), size=(_CHUNK, num_experts))
        advices[:, 0] = 0.0
        advices[rows, 0, clean_arm] = 1.0
        losses = rng.random((_CHUNK, num_arms))
        losses[rows, clean_arm] = 0.0
    elif spec.kind == "stochastic_gap":
        # Arm a loses with probability mu_star + a * delta (capped at 1);
        # expert e always points at arm e mod K.
        means = np.minimum(spec.mu_star + spec.delta * np.arange(num_arms), 1.0)
        layout = np.zeros((num_experts, num_arms))
        layout[experts, experts % num_arms] = 1.0
        advices = np.broadcast_to(layout, (_CHUNK, num_experts, num_arms))
        losses = (rng.random((_CHUNK, num_arms)) < means).astype(float)
    else:
        # Advice masses land exactly on the 1/(2T) lattice near the
        # truncation thresholds, so sorted minority arms keep grazing the
        # zero boundary.  Expert e favours arm e mod K, which takes, in
        # exact integers, whatever the other arms' steps leave of the
        # lattice; arm ((t - 1) // block) mod K loses nothing in round t.
        lattice = 2 * spec.horizon
        band = max(1, lattice // (4 * max(num_arms - 1, 1)))
        steps = rng.integers(0, band + 1, size=(_CHUNK, num_experts, num_arms))
        favored = experts % num_arms
        steps[:, experts, favored] = 0
        steps[:, experts, favored] = lattice - steps.sum(axis=2)
        advices = steps / lattice
        block = max(1, int(round(spec.horizon ** 0.5)))
        good_arm = ((chunk * _CHUNK + rows) // block) % num_arms
        losses = (rng.random((_CHUNK, num_arms)) < 0.6).astype(float)
        losses[rows, good_arm] = 0.0
    checked = simplex.distribution_rows(advices)
    if not checked.all():
        row, expert = np.argwhere(~checked)[0].tolist()
        raise RuntimeError(f"generated advice of round {chunk * _CHUNK + row + 1}, expert "
                           f"{expert}, is not a distribution: {advices[row, expert]!r}")
    advices.flags.writeable = False
    losses.flags.writeable = False
    return advices, losses


# The one chunk ``generate`` holds: (spec, chunk index, arrays).  Play visits
# the rounds of a seed in order, and the spec is matched by identity, so no
# round hashes it; an equal spec made anew draws its chunk again.
_held = (None, -1, None)


def generate(spec: EnvSpec, t: int) -> RoundData:
    """Round t (1-based) of the environment, a pure function of (seed, t):
    fresh, writable copies of one row of its chunk, or of row t - 1 of the
    spec's replay."""
    global _held
    if not 1 <= t <= spec.horizon:
        raise ValueError(f"round {t} outside [1, {spec.horizon}]")
    if spec.kind == "replay":
        replay = spec.replay
        return RoundData(replay.advices[t - 1].copy(), replay.losses[t - 1].copy())
    chunk, row = divmod(t - 1, _CHUNK)
    held_spec, held_chunk, arrays = _held
    if held_spec is not spec or held_chunk != chunk:
        arrays = _chunk(spec, chunk)
        _held = (spec, chunk, arrays)
    advices, losses = arrays
    return RoundData(advices[row].copy(), losses[row].copy())


def _format_row(values: list) -> str:
    return " ".join([repr(float(v)) for v in values]) + "\n"


def save_replay(path: str, rounds: list[RoundData]) -> None:
    """Write rounds to the replay text format (LF endings, repr floats).

    The shapes are checked before the file is opened, and the file is
    written a round at a time.
    """
    if not rounds:
        raise ValueError("cannot save an empty replay")
    num_experts, num_arms = rounds[0].advices.shape
    for data in rounds:
        if data.advices.shape != (num_experts, num_arms) or data.losses.shape != (num_arms,):
            raise ValueError("inconsistent round shapes in replay")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{num_arms} {num_experts} {len(rounds)}\n")
        for data in rounds:
            fh.write(_format_row(data.losses.tolist()))
            fh.writelines([_format_row(row) for row in data.advices.tolist()])


def _parse_header(line: str) -> tuple[int, int, int]:
    header = line.split()
    if len(header) != 3:
        raise ValueError("line 1: header must be 'num_arms num_experts num_rounds'")
    try:
        num_arms, num_experts, num_rounds = (int(h) for h in header)
    except ValueError as exc:
        raise ValueError("line 1: header holds a non-integer value") from exc
    if num_arms < 2 or num_experts < 1 or num_rounds < 1:
        raise ValueError("line 1: header values out of range")
    return num_arms, num_experts, num_rounds


def _parse_columns(data: bytes) -> Replay | None:
    """The replay in one ``np.loadtxt`` call over the body, or None wherever
    that parse could differ from ``_parse_lines``.

    loadtxt reads the numbers ``float`` reads, to the same bits, but it
    skips blank lines, treats a lone carriage return as a line break (and
    rejects it inside a line today) and decodes outside ASCII in its own
    way.  So the file must be ASCII with no lone ``\r``, and have exactly
    one body line per row loadtxt yields; then it must satisfy every rule.
    Otherwise the line parser decides.
    """
    end = data.find(b"\n")
    if end < 0 or not data.isascii():
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    try:
        num_arms, num_experts, num_rounds = _parse_header(data[:end].decode())
    except ValueError:
        return None
    per_round = 1 + num_experts
    body_lines = data.count(b"\n", end + 1) + (not data.endswith(b"\n"))
    if body_lines != num_rounds * per_round:
        return None
    body = io.BytesIO(data)
    body.seek(end + 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a body of blank lines warns
            rows = np.loadtxt(body, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if rows.shape != (num_rounds * per_round, num_arms):
        return None
    # Views of one buffer; a round's losses and advices are each contiguous.
    table = rows.reshape(num_rounds, per_round, num_arms)
    losses, advices = table[:, 0], table[:, 1:]
    # ``_parse_lines``'s rules on whole arrays; NaN fails every comparison.
    if not (np.all((losses >= 0.0) & (losses <= 1.0))
            and np.all(simplex.distribution_rows(advices))):
        return None
    return Replay(losses=losses, advices=advices)


def _parse_row(text: str, expected: int, line_no: int, what: str) -> list[float]:
    parts = text.split()
    if len(parts) != expected:
        raise ValueError(f"line {line_no}: {what} has {len(parts)} values, expected {expected}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {what} holds a non-numeric value") from exc


def _parse_lines(text: str) -> Replay:
    """The replay a line at a time, naming the first malformed line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("line 1: empty replay file")
    num_arms, num_experts, num_rounds = _parse_header(lines[0])

    per_round = 1 + num_experts
    expected_lines = 1 + num_rounds * per_round
    if len(lines) < expected_lines:
        complete = (len(lines) - 1) // per_round
        raise ValueError(
            f"line {len(lines) + 1}: file truncated inside round {complete + 1}")
    if len(lines) > expected_lines:
        raise ValueError(f"line {expected_lines + 1}: trailing content after final round")

    losses = np.empty((num_rounds, num_arms))
    advices = np.empty((num_rounds, num_experts, num_arms))
    cursor = 1
    for r in range(num_rounds):
        line_no = cursor + 1
        row = _parse_row(lines[cursor], num_arms, line_no, f"round {r + 1} losses")
        if not all(0.0 <= v <= 1.0 for v in row):   # NaN is out of range too
            raise ValueError(f"line {line_no}: losses outside [0, 1]")
        losses[r] = row
        cursor += 1
        for e in range(num_experts):
            line_no = cursor + 1
            row = _parse_row(lines[cursor], num_arms, line_no, f"round {r + 1} advice {e + 1}")
            if not simplex.validate(row):
                raise ValueError(f"line {line_no}: advice row is not a distribution")
            advices[r, e] = row
            cursor += 1
    return Replay(losses=losses, advices=advices)


def load_replay(path: str) -> Replay:
    """Parse a replay file, validating structure and reporting line numbers.

    The body is parsed in one vectorised call; when that call fails or
    a rule is broken, the line parser decodes the same bytes in the
    locale's encoding and names the first malformed line, so either path
    accepts the same files and returns the same arrays.  A byte that
    encoding cannot decode is named by its line too.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    replay = _parse_columns(data)
    if replay is not None:
        return replay
    import locale   # about 1.7 ms to import, paid only by files the vectorised parse refuses
    encoding = locale.getpreferredencoding(False)
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line_no}: byte {data[exc.start]:#04x} "
                         f"is not valid {encoding}") from exc
    return _parse_lines(text)


# The last parse and the file's (path, st_dev, st_ino, st_size, st_mtime_ns,
# st_ctime_ns) when it was read; one entry, so a process holds one replay.
_opened: tuple[tuple, Replay] | None = None


def open_replay(path: str) -> Replay:
    """The replay file at ``path``, parsed by ``load_replay``.

    The file is stat'ed once per call, and the last parse is returned while
    the path, device, inode, size, mtime and ctime are unchanged.  A rewrite
    that restores the mtime still moves the ctime, and a file renamed over
    the path has a new inode.  The old parse is dropped before a new one is
    read, so the process never holds two.
    """
    global _opened
    info = os.stat(path)
    stamp = (path, info.st_dev, info.st_ino, info.st_size,
             info.st_mtime_ns, info.st_ctime_ns)
    if _opened is None or _opened[0] != stamp:
        _opened = None
        _opened = (stamp, load_replay(path))
    return _opened[1]
