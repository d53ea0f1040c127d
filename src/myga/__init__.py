"""Truncation-augmented exponential-weights contextual bandit.

The package splits into simplex primitives, the truncation operator,
the self-consistent mixture solver the policy runs, the online policy,
exponential-weights baselines, seeded environments with a replay format,
a runtime invariant auditor, and a CSV-emitting experiment harness.
The solver is ``fixed_point._solve``: it trusts the inputs the policy
has just built, so it is not exported; ``mixture_residual`` is, to
check any candidate play.  The tests drive the solver with the shares
class in ``tests/fixed_point_reference.py``.
"""

from .audit import Auditor, RegretReport, Violation
from .baselines import Exp4Config, Exp4Policy
from .environments import EnvSpec, Replay, RoundData, generate, load_replay, save_replay
from .fixed_point import mixture_residual
from .policy import MygaConfig, MygaPolicy, Play, build_threshold_grid, schedule_parameters
from .simplex import ArmPermutation, pivot_index, sample_index, sort_descending, weighted_average
from .truncation import truncate

__all__ = [
    "ArmPermutation", "Auditor", "EnvSpec", "Exp4Config", "Exp4Policy",
    "MygaConfig", "MygaPolicy", "Play", "RegretReport", "Replay",
    "RoundData", "Violation", "build_threshold_grid",
    "generate", "load_replay", "mixture_residual",
    "pivot_index", "sample_index", "save_replay", "schedule_parameters",
    "sort_descending", "truncate", "weighted_average",
]
