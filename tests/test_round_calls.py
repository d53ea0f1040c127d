"""The Python calls a distinct play costs, counted and pinned.

A round's cost on the lattice cell is interpreter overhead, so the number
of Python function calls a round makes is part of its cost model.  The
count is taken with ``sys.setprofile`` over the named functions of the
``myga`` package (comprehensions, generator expressions and lambdas are
left out: Python 3.12 inlines comprehensions, so their calls depend on
the interpreter).  It is exact and repeats on every run; a change that
adds or removes a call per round moves it, and the pin below is then
updated with the reason.
"""

import os
import sys
from collections import Counter

import numpy as np

import myga
from myga.audit import Auditor
from myga.environments import EnvSpec, generate
from myga.policy import MygaConfig, MygaPolicy

PACKAGE = os.path.dirname(os.path.abspath(myga.__file__)) + os.sep

ROUNDS = 200

# Calls of named myga functions over the 200 rounds below: 31.465 a round.
# The round helpers with their totals through ``left_sum``, their
# conversions through ``floats`` and the kept weight through
# ``WeightState.prefix`` made 10780 (53.9 a round).  With the auditor
# proving a repeat field by field (``_same_play``, once a round from the
# second) and ``sample_index`` building its prefix sums inline they made
# 6292; a repeat is now one identity test, and ``sample`` builds a new
# distribution's prefix sums with ``cumulative``, once per distinct play.
# Returning the play itself from ``advise``, with no round object around
# it, leaves the count unchanged: that object's ``__init__`` was generated
# by ``dataclasses`` (file ``<string>``), so it was never counted here,
# though it was one more Python call a round (8609 calls of any kind over
# these rounds before, 8409 after).
PINNED_CALLS = 6293


def lattice_calls() -> Counter:
    """Calls per function over a minority_lattice-shaped run: K=5, E=8, grid 400, audited."""
    cfg = MygaConfig(num_arms=5, num_experts=8, horizon=ROUNDS, eta=0.2, gamma=0.4,
                     grid_denominator=4000)
    spec = EnvSpec(kind="adversarial_minority", num_arms=5, num_experts=8,
                   horizon=ROUNDS, seed=0)
    policy = MygaPolicy(cfg, sample_rng=np.random.default_rng(0))
    auditor = Auditor(5, 8, cfg.gamma)
    rounds = [generate(spec, t) for t in range(1, ROUNDS + 1)]
    calls = Counter()

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) \
                and not code.co_name.startswith("<"):
            calls[code.co_name] += 1

    sys.setprofile(count)
    try:
        for t, data in enumerate(rounds, start=1):
            p, play = policy.advise(data.advices)
            arm = policy.sample(p)
            policy.update(arm, float(data.losses[arm]))
            auditor.observe_round(t, data.advices, play, data.losses)
    finally:
        sys.setprofile(None)
    assert policy.t == ROUNDS + 1 and auditor.report.rounds == ROUNDS
    return calls


def test_lattice_round_calls_are_pinned():
    calls = lattice_calls()
    per_round = {name: n / ROUNDS for name, n in sorted(calls.items())}
    assert sum(calls.values()) == PINNED_CALLS, per_round
    # Every round plays a new distinct play through each traced helper once.
    for name in ("weighted_average", "sort_descending", "pivot_index", "_solve",
                 "mixture_residual", "truncate", "require_distribution",
                 "truncated_mass_table", "check_round", "observe_round", "cumulative"):
        assert calls[name] == ROUNDS, name
    # No round adds through ``left_sum`` or converts through ``floats``.
    assert calls["left_sum"] == calls["floats"] == 0
