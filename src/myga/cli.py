"""Experiment harness and command-line interface.

Configuration is flat ``key=value`` text plus flag overrides; flags win.
One process runs one policy on one environment kind over a list of
seeds, in ascending seed order, and writes two CSV files as it goes: a
per-round log and a per-seed summary.  Identical configuration produces
identical bytes.  Exit code 0 means success, 1 a configuration or I/O error, 2
that the run finished but the auditor recorded violations, and 3 an
internal invariant failure that stopped the run (a ``RuntimeError``, such
as a fixed-point residual over tolerance or NaN, truncation drift, a
played arm of zero probability, or a generated advice row that is not a
distribution).

The loop plays the rows ``generate`` returns, which the environment
checked where it made them, so it asks ``advise`` for no second row
check (``_checked=True``); every played row is checked once.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .audit import Auditor, RegretReport, Violation, theorem_bound_value
from .baselines import Exp4Config, Exp4Policy
from .environments import KINDS, EnvSpec, generate, open_replay
from .policy import MygaConfig, MygaPolicy, schedule_parameters

POLICIES = ("myga", "exp4", "exp4_threshold")

# Disjoint from the environments' chunk streams, [seed, 2**41, chunk]: see
# ``environments._CHUNK_SALT``.
SAMPLE_STREAM_SALT = 2 ** 40

ROUND_HEADER = ("seed,t,k_t,a,realized_loss,expected_loss,cum_LT,cum_Lstar,"
                "cum_regret,cum_M,cum_m,residual,violations")
SUMMARY_HEADER = "seed,R_T,L_star,M,m,bound_value,bound_pass"

# Most round rows held between writes: a seed's rows go out in chunks of
# this many and once more at the seed's end.
ROUND_CHUNK_ROWS = 4096


@dataclass
class ExperimentConfig:
    policy: str = "myga"
    env: str = "stochastic_gap"
    num_arms: int = 2
    num_experts: int = 2
    horizon: int = 100
    seeds: tuple[int, ...] = (0,)
    eta: float | None = None
    gamma: float | None = None
    grid_denominator: int | None = None
    l_star: float | None = None
    mu_star: float = 0.1
    delta: float = 0.2
    replay_path: str | None = None
    audit: bool = True
    bound_factor: float = 10.0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy {self.policy!r} not one of {POLICIES}")
        if self.env not in KINDS:
            raise ValueError(f"env {self.env!r} not one of {KINDS}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        listed = set()
        for seed in self.seeds:
            if seed in listed:
                raise ValueError(f"seed {seed} is listed twice")
            listed.add(seed)
        if self.env == "replay" and not self.replay_path:
            raise ValueError("replay kind needs replay_path")
        if not math.isfinite(self.bound_factor):
            raise ValueError(f"bound factor {self.bound_factor} is not finite")
        if self.bound_factor < 0.0:
            raise ValueError(f"bound factor {self.bound_factor} is negative")


@dataclass
class SeedResult:
    seed: int
    eta: float
    gamma: float
    report: RegretReport
    violations: list[Violation]
    bound_pass: bool


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed_results: list[SeedResult] = field(default_factory=list)

    @property
    def any_violation(self) -> bool:
        return any(r.violations for r in self.seed_results)

    @property
    def exit_code(self) -> int:
        return 2 if (self.config.audit and self.any_violation) else 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_paths(out_prefix: str) -> tuple[str, str]:
    return f"{out_prefix}_rounds.csv", f"{out_prefix}_summary.csv"


def _open_csv(path: str, header: str):
    fh = open(path, "w", newline="\n")
    fh.write(header + "\n")
    return fh


def emit_csv(fh, rows: list[tuple]) -> None:
    """Append rows to an open CSV file and flush it; floats as ``repr``."""
    fh.write("".join([",".join([_fmt(v) for v in row]) + "\n" for row in rows]))
    fh.flush()


def execute(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed and return reports and violations.

    The run is resolved once, before either file is opened: first the
    replay file, read once with ``open_replay``, then the first seed's
    environment, the schedule, the policy configuration and the bound.
    Every seed plays the replay read here; a seed then makes only its
    environment, sample stream, policy and auditor.

    With ``out`` set, both CSV files are created with their headers before
    round 1, so an unwritable prefix fails before any round is computed.
    Round rows go out through ``emit_csv`` every ``ROUND_CHUNK_ROWS`` rows
    and at the end of each seed, followed by the seed's summary row: a run
    holds at most one chunk of rows, and a run that stops keeps every
    chunk already written.
    """
    seeds = sorted(config.seeds)
    replay = open_replay(config.replay_path) if config.env == "replay" else None
    first_spec = EnvSpec(kind=config.env, num_arms=config.num_arms,
                         num_experts=config.num_experts, horizon=config.horizon,
                         seed=seeds[0], mu_star=config.mu_star, delta=config.delta,
                         replay=replay)
    l_star = config.l_star if config.l_star is not None else float(config.horizon)
    eta, gamma = schedule_parameters(config.num_arms, config.num_experts,
                                     config.horizon, l_star, config.grid_denominator)
    if config.eta is not None:
        eta = config.eta
    if config.gamma is not None:
        gamma = config.gamma
    if config.policy == "myga":
        make_policy = MygaPolicy
        policy_config = MygaConfig(num_arms=config.num_arms, num_experts=config.num_experts,
                                   horizon=config.horizon, eta=eta, gamma=gamma,
                                   grid_denominator=config.grid_denominator)
    else:
        variant = "thresholded" if config.policy == "exp4_threshold" else "plain"
        make_policy = Exp4Policy
        policy_config = Exp4Config(num_arms=config.num_arms, num_experts=config.num_experts,
                                   eta=eta, variant=variant,
                                   gamma=gamma if variant == "thresholded" else 0.0)
    bound_value = theorem_bound_value(config.num_arms, config.num_experts,
                                      config.horizon, l_star)

    result = ExperimentResult(config=config)
    collect_rounds = config.out is not None
    solved = config.policy == "myga"   # only its plays carry a pivot and a residual
    with contextlib.ExitStack() as files:
        if collect_rounds:
            rounds_path, summary_path = _csv_paths(config.out)
            rounds_fh = files.enter_context(_open_csv(rounds_path, ROUND_HEADER))
            summary_fh = files.enter_context(_open_csv(summary_path, SUMMARY_HEADER))
        for seed in seeds:
            spec = dataclasses.replace(first_spec, seed=seed)
            pol = make_policy(policy_config,
                              sample_rng=np.random.default_rng([seed, SAMPLE_STREAM_SALT]))
            auditor = Auditor(config.num_arms, config.num_experts, gamma=gamma,
                              enabled=config.audit)
            rows: list[tuple] = []
            for t in range(1, config.horizon + 1):
                data = generate(spec, t)
                p, play = pol.advise(data.advices, _checked=True)
                arm = pol.sample(p)
                realized = float(data.losses[arm])
                pol.update(arm, realized)
                fresh = auditor.observe_round(t, data.advices, play, data.losses)
                if collect_rounds:
                    report = auditor.report
                    best = report.best_expert_loss
                    rows.append((
                        seed, t,
                        play.pivot if solved else 0, arm,
                        realized, auditor.round_play_loss,
                        report.total_play_loss, best,
                        report.total_play_loss - best, report.majority_loss,
                        report.minority_loss, play.residual if solved else 0.0, fresh,
                    ))
                    if len(rows) == ROUND_CHUNK_ROWS:
                        emit_csv(rounds_fh, rows)
                        rows = []
            violations = auditor.finalize()
            report = auditor.report
            bound_pass = report.regret <= config.bound_factor * bound_value
            result.seed_results.append(SeedResult(
                seed=seed, eta=eta, gamma=gamma, report=report,
                violations=violations, bound_pass=bound_pass))
            if collect_rounds:
                if rows:
                    emit_csv(rounds_fh, rows)
                emit_csv(summary_fh, [(
                    seed, report.regret, report.best_expert_loss,
                    report.majority_loss, report.minority_loss,
                    bound_value, int(bound_pass),
                )])
    return result


def run(config: ExperimentConfig) -> int:
    """Execute a configuration and map the outcome to an exit code."""
    result = execute(config)
    for r in result.seed_results:
        print("seed={} R_T={} L_star={} violations={}".format(
            r.seed, _fmt(r.report.regret), _fmt(r.report.best_expert_loss), len(r.violations)))
    return result.exit_code


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad seed list {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


_FIELD_PARSERS = {
    "policy": ("policy", str),
    "env": ("env", str),
    "arms": ("num_arms", int),
    "experts": ("num_experts", int),
    "horizon": ("horizon", int),
    "seeds": ("seeds", _parse_seeds),
    "seed": ("seeds", _parse_seeds),
    "eta": ("eta", float),
    "gamma": ("gamma", float),
    "grid_denominator": ("grid_denominator", int),
    "lstar": ("l_star", float),
    "mu_star": ("mu_star", float),
    "delta": ("delta", float),
    "replay": ("replay_path", str),
    "audit": ("audit", _parse_bool),
    "bound_factor": ("bound_factor", float),
    "out": ("out", str),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad usage, 2 is reserved for audits
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_config(argv: list[str]) -> ExperimentConfig:
    parser = _Parser(prog="myga", description="Run a bandit policy on a seeded environment")
    parser.add_argument("--config", help="key=value configuration file")
    for key in _FIELD_PARSERS:
        if key != "seeds":   # the plural is a file-only spelling of seed
            parser.add_argument("--" + key.replace("_", "-"), dest=key)
    args = vars(parser.parse_args(argv))

    raw: dict[str, str] = {}
    config_path = args.pop("config")
    if config_path:
        raw.update(parse_config_file(config_path))
    raw.update({key: value for key, value in args.items() if value is not None})

    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_PARSERS:
            raise ValueError(f"unknown configuration key {key!r}")
        name, parse = _FIELD_PARSERS[key]
        try:
            kwargs[name] = parse(value)
        except ValueError as exc:   # the parser's message does not name the key
            raise ValueError(f"{key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"myga: error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except (ValueError, OSError) as exc:
        print(f"myga: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"myga: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
