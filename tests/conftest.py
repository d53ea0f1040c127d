import numpy as np
import pytest

import myga.fixed_point as fixed_point_mod
import myga.policy as policy_mod


@pytest.fixture
def corrupted_solve(monkeypatch):
    """Replace the solved distribution of every two-arm round with [0.55, 0.45].

    Patches the solver the policy looks up each round, so the auditor is
    fed a round that breaks the minority cap and the majority floor.  The
    placement returned is the corrupted minority's own.
    """
    solve = policy_mod._solve

    def corrupt(zeta, pivot, weights, grid):
        _, _, residual = solve(zeta, pivot, weights, grid)
        q = [0.55, 0.45]
        return q, np.searchsorted(grid, q[pivot:], side="left").tolist(), residual

    monkeypatch.setattr(policy_mod, "_solve", corrupt)


@pytest.fixture
def growth_passes(monkeypatch):
    """Every growth pass of the solver, as (minority masses, thresholds below each arm).

    ``fixed_point._solve`` starts each pass by checking its state with
    ``_in_place``; the wrapper records that state and passes the call on.
    Clear the list between solves.
    """
    passes = []
    in_place = fixed_point_mod._in_place

    def record(grid, below, masses):
        passes.append((np.array(masses), list(below)))
        return in_place(grid, below, masses)

    monkeypatch.setattr(fixed_point_mod, "_in_place", record)
    return passes
