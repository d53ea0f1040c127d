"""Truncation-augmented exponential-weights contextual bandit.

The package splits into simplex primitives, the truncation operator,
the self-consistent mixture solver, the online policy, exponential-
weights baselines, seeded environments with a replay format, a runtime
invariant auditor, and a CSV-emitting experiment harness.
"""

from .audit import Auditor, RegretReport, Violation
from .baselines import Exp4Config, Exp4Policy
from .environments import EnvSpec, Replay, RoundData, generate, load_replay, save_replay
from .fixed_point import MixtureWeights, mixture_residual, solve_fixed_point
from .policy import (MygaConfig, MygaPolicy, Play, RoundTrace, build_threshold_grid,
                     schedule_parameters)
from .simplex import ArmPermutation, pivot_index, sample_index, sort_descending, weighted_average
from .truncation import truncate

__all__ = [
    "ArmPermutation", "Auditor", "EnvSpec", "Exp4Config", "Exp4Policy",
    "MixtureWeights", "MygaConfig", "MygaPolicy", "Play", "RegretReport", "Replay",
    "RoundData", "RoundTrace", "Violation", "build_threshold_grid",
    "generate", "load_replay", "mixture_residual",
    "pivot_index", "sample_index", "save_replay", "schedule_parameters",
    "solve_fixed_point", "sort_descending", "truncate", "weighted_average",
]
