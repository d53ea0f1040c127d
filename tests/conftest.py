import numpy as np
import pytest

import myga.policy as policy_mod


@pytest.fixture
def corrupted_solve(monkeypatch):
    """Replace the solved distribution of every two-arm round with [0.55, 0.45].

    Patches the solver the policy looks up each round, so the auditor is
    fed a round that breaks the minority cap and the majority floor.
    """
    solve = policy_mod._solve

    def corrupt(*args, **kwargs):
        _, iterations, residual = solve(*args, **kwargs)
        return np.array([0.55, 0.45]), iterations, residual

    monkeypatch.setattr(policy_mod, "_solve", corrupt)
