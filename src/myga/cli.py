"""Experiment harness and command-line interface.

Configuration is flat ``key=value`` text plus flag overrides; flags win.
One process runs one policy on one environment kind over a list of
seeds, in ascending seed order, and emits two CSV files: a per-round
log and a per-seed summary.  Identical configuration produces identical
bytes.  Exit code 0 means success, 1 a configuration or I/O error, 2
that the run finished but the auditor recorded violations, and 3 an
internal invariant failure that stopped the run (a ``RuntimeError``, such
as a fixed-point residual over tolerance or NaN, truncation drift, or a
played arm of zero probability).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from .audit import Auditor, RegretReport, Violation, evaluate_theorem_bound
from .baselines import Exp4Config, Exp4Policy
from .environments import KINDS, EnvSpec, generate
from .policy import MygaConfig, MygaPolicy, schedule_parameters

POLICIES = ("myga", "exp4", "exp4_threshold")

# Disjoint from the per-round environment streams, which use [seed, t].
SAMPLE_STREAM_SALT = 2 ** 40

ROUND_HEADER = ("seed,t,k_t,a,realized_loss,expected_loss,cum_LT,cum_Lstar,"
                "cum_regret,cum_M,cum_m,residual,violations")
SUMMARY_HEADER = "seed,R_T,L_star,M,m,bound_value,bound_pass"


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
    round_rows: list[tuple] = field(default_factory=list)
    summary_rows: list[tuple] = field(default_factory=list)

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


def emit_csv(round_rows: list[tuple], summary_rows: list[tuple],
             out_prefix: str) -> tuple[str, str]:
    """Write the per-round and summary CSV files; header-only when empty."""
    rounds_path, summary_path = _csv_paths(out_prefix)
    with open(rounds_path, "w", newline="\n") as fh:
        fh.write(ROUND_HEADER + "\n")
        for row in round_rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(summary_path, "w", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in summary_rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return rounds_path, summary_path


def _build_policy(config: ExperimentConfig, seed: int) -> tuple[object, float, float]:
    l_star = config.l_star if config.l_star is not None else float(config.horizon)
    eta, gamma = schedule_parameters(config.num_arms, config.num_experts,
                                     config.horizon, l_star, config.grid_denominator)
    if config.eta is not None:
        eta = config.eta
    if config.gamma is not None:
        gamma = config.gamma
    rng = np.random.default_rng([seed, SAMPLE_STREAM_SALT])
    if config.policy == "myga":
        cfg = MygaConfig(num_arms=config.num_arms, num_experts=config.num_experts,
                         horizon=config.horizon, eta=eta, gamma=gamma,
                         grid_denominator=config.grid_denominator)
        return MygaPolicy(cfg, sample_rng=rng), eta, gamma
    variant = "thresholded" if config.policy == "exp4_threshold" else "plain"
    cfg = Exp4Config(num_arms=config.num_arms, num_experts=config.num_experts,
                     eta=eta, variant=variant,
                     gamma=gamma if variant == "thresholded" else 0.0)
    return Exp4Policy(cfg, sample_rng=rng), eta, gamma


def execute(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed and return reports, violations, and CSV rows."""
    result = ExperimentResult(config=config)
    collect_rounds = config.out is not None
    if collect_rounds:
        # Create or truncate both files now, so an unwritable prefix fails
        # before round 1 rather than after the whole run.
        for path in _csv_paths(config.out):
            open(path, "w").close()
    l_star_for_bound = config.l_star if config.l_star is not None else float(config.horizon)

    for seed in sorted(config.seeds):
        spec = EnvSpec(kind=config.env, num_arms=config.num_arms,
                       num_experts=config.num_experts, horizon=config.horizon,
                       seed=seed, mu_star=config.mu_star, delta=config.delta,
                       replay_path=config.replay_path)
        pol, eta, gamma = _build_policy(config, seed)
        auditor = Auditor(config.num_arms, config.num_experts, gamma=gamma,
                          enabled=config.audit)
        for t in range(1, config.horizon + 1):
            data = generate(spec, t)
            p, trace = pol.advise(data.advices)
            arm = pol.sample(p)
            realized = float(data.losses[arm])
            pol.update(trace, arm, realized)
            fresh = auditor.observe_round(trace, data.losses)
            if collect_rounds:
                report = auditor.report
                result.round_rows.append((
                    seed, t,
                    getattr(trace, "pivot", 0), arm,
                    realized, float(p @ data.losses),
                    report.total_play_loss, report.best_expert_loss,
                    report.regret, report.majority_loss, report.minority_loss,
                    float(getattr(trace, "residual", 0.0)), fresh,
                ))
        violations = auditor.finalize()
        report = auditor.report
        bound_pass = evaluate_theorem_bound(
            report, config.num_arms, config.num_experts, config.horizon,
            l_star_for_bound, config.bound_factor)
        result.seed_results.append(SeedResult(
            seed=seed, eta=eta, gamma=gamma, report=report,
            violations=violations, bound_pass=bound_pass))
        result.summary_rows.append((
            seed, report.regret, report.best_expert_loss,
            report.majority_loss, report.minority_loss,
            float(report.bound_value), int(bound_pass),
        ))

    if config.out is not None:
        emit_csv(result.round_rows, result.summary_rows, config.out)
    return result


def run(config: ExperimentConfig) -> int:
    """Execute a configuration and map the outcome to an exit code."""
    result = execute(config)
    for row, seed_result in zip(result.summary_rows, result.seed_results):
        print("seed={} R_T={} L_star={} violations={}".format(
            row[0], _fmt(row[1]), _fmt(row[2]), len(seed_result.violations)))
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
    parser.add_argument("--policy", choices=POLICIES)
    parser.add_argument("--env", choices=KINDS)
    parser.add_argument("--arms", type=int)
    parser.add_argument("--experts", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--seed", help="comma-separated seed list")
    parser.add_argument("--eta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--grid-denominator", type=int, dest="grid_denominator")
    parser.add_argument("--lstar", type=float)
    parser.add_argument("--mu-star", type=float, dest="mu_star")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--replay")
    parser.add_argument("--audit", help="true/false")
    parser.add_argument("--bound-factor", type=float, dest="bound_factor")
    parser.add_argument("--out", help="prefix for <prefix>_rounds.csv and <prefix>_summary.csv")
    args = parser.parse_args(argv)

    raw: dict[str, str] = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    flag_values = {
        "policy": args.policy, "env": args.env, "arms": args.arms,
        "experts": args.experts, "horizon": args.horizon, "seed": args.seed,
        "eta": args.eta, "gamma": args.gamma,
        "grid_denominator": args.grid_denominator, "lstar": args.lstar,
        "mu_star": args.mu_star, "delta": args.delta, "replay": args.replay,
        "audit": args.audit, "bound_factor": args.bound_factor, "out": args.out,
    }
    for key, value in flag_values.items():
        if value is not None:
            raw[key] = value

    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_PARSERS:
            raise ValueError(f"unknown configuration key {key!r}")
        name, parse = _FIELD_PARSERS[key]
        kwargs[name] = parse(value) if isinstance(value, str) else value
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
