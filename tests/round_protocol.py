"""Round-protocol tests that every ``ExpertPolicy`` subclass must pass.

A test class inherits ``RoundProtocolContract`` and supplies two static
methods: ``make()``, a fresh policy with two arms and two experts, and
``starved_round()``, a fresh policy with an advice matrix on which it
plays arm 1 with probability zero.
"""

import copy
from dataclasses import fields

import numpy as np
import pytest

from myga.truncation import StepFunction

ADVICES = np.array([[1.0, 0.0], [0.4, 0.6]])


def rebuilt(state):
    """A copy of a weight state with buffers of its own; its views are views of them.

    ``copy.deepcopy`` would copy ``real_loss`` and the other views into
    arrays of their own, cut off from the arrays they view.
    """
    clone = type(state)(state.size, state.eta, state.real_loss.size)
    for name, value in vars(state).items():
        if isinstance(value, np.ndarray) and value.base is None:
            getattr(clone, name)[...] = value
    return clone


def rebase_bits(state, shift):
    """The bytes of all a rebase sets: shift, real weights, block prefixes, total, shares."""
    splits = [share for n in range(state.size + 1) for share in state.split(n)]
    return (np.array([shift, state.total, state.base, *splits]).tobytes(),
            state.real_weights.tobytes(), state._prefix.tobytes())


class RoundProtocolContract:
    def test_state_machine_guards(self):
        policy = self.make()
        _, round_one = self.make().advise(ADVICES)
        with pytest.raises(RuntimeError, match="without a pending"):
            policy.update(round_one, 0, 0.5)
        p, trace = policy.advise(ADVICES)
        with pytest.raises(RuntimeError, match="before update"):
            policy.advise(ADVICES)
        policy.update(trace, 0, 0.5)
        with pytest.raises(RuntimeError, match="without a pending"):
            policy.update(trace, 0, 0.5)
        p2, trace2 = policy.advise(ADVICES)
        with pytest.raises(ValueError, match="round"):
            policy.update(trace, 0, 0.5)
        policy.update(trace2, 0, 0.5)
        assert policy.t == 3

    def test_zero_probability_play_is_an_error(self):
        policy, advices = self.starved_round()
        p, trace = policy.advise(advices)
        assert p[1] == 0.0
        with pytest.raises(RuntimeError, match="zero probability"):
            policy.update(trace, 1, 0.5)

    def test_zero_loss_play_is_still_checked(self):
        # A zero loss charges nobody, yet the play it is reported for is
        # checked as any other: on an arm of zero probability or outside
        # the arms it is an error.
        policy, advices = self.starved_round()
        p, trace = policy.advise(advices)
        assert p[1] == 0.0
        with pytest.raises(RuntimeError, match="zero probability"):
            policy.update(trace, 1, 0.0)
        for arm in (-1, 2, 5):
            with pytest.raises(ValueError, match="arm"):
                policy.update(trace, arm, 0.0)

    def test_rejects_out_of_range_loss_and_arm(self):
        policy, reference = self.make(), self.make()
        p, trace = policy.advise(ADVICES)
        for arm in (-1, 2, 5):
            with pytest.raises(ValueError, match="arm"):
                policy.update(trace, arm, 0.5)
        with pytest.raises(ValueError, match="loss"):
            policy.update(trace, 0, 1.5)
        # The rejected updates changed nothing: the policy's round and real
        # losses are a fresh policy's, the round still completes, and the
        # next round matches a policy that never saw them.
        assert policy.t == reference.t
        np.testing.assert_array_equal(policy.real_loss, reference.real_loss)
        policy.update(trace, 0, 0.5)
        _, ref_trace = reference.advise(ADVICES)
        reference.update(ref_trace, 0, 0.5)
        np.testing.assert_array_equal(policy.advise(ADVICES)[0], reference.advise(ADVICES)[0])

    def test_update_leaves_the_trace_unchanged(self):
        policy = self.make()
        for loss in (0.5, 0.0, 1.0):
            p, trace = policy.advise(ADVICES)
            before = copy.deepcopy(trace)
            policy.update(trace, int(np.flatnonzero(np.asarray(p) > 0.0)[0]), loss)
            assert vars(trace).keys() == vars(before).keys()
            for field in fields(trace):
                got, want = getattr(trace, field.name), getattr(before, field.name)
                assert type(got) is type(want), field.name
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want, err_msg=field.name)
                elif field.name == "perm":
                    np.testing.assert_array_equal(got.forward, want.forward)
                    np.testing.assert_array_equal(got.inverse, want.inverse)
                else:
                    assert got == want, field.name

    def test_update_charges_the_weight_state(self):
        # ``real_loss`` is a view of the weight state's real entries, not a
        # copy: the charge ``update`` makes lands in the state, and the next
        # rebase weighs the charged expert down.
        policy = self.make()
        p, trace = policy.advise(ADVICES)
        policy.update(trace, 0, 0.5)
        est = 0.5 / p[0]
        assert policy.state.real_loss.tolist() == policy.real_loss.tolist() == [est, 0.4 * est]
        assert np.shares_memory(policy.real_loss, policy.state.lead)
        policy.state.weights()
        assert policy.state.real_weights[0] < policy.state.real_weights[1] == 1.0

    def test_weights_match_a_forced_rebase(self):
        # ``weights`` keeps its last rebase while no cumulative loss has
        # changed.  After a zero-loss round, a charged round, a write
        # through ``real_loss`` and a bare charge alike, what it serves is
        # bit for bit what a copy of the state computes by rebasing anyway.
        policy = self.make()
        state = policy.state

        def play(loss):
            p, trace = policy.advise(ADVICES)
            policy.update(trace, int(np.flatnonzero(np.asarray(p) > 0.0)[0]), loss)

        def bare_charge():
            half = state.size // 2
            state.charge(StepFunction([0, half], [0.25, 0.5]) if half else StepFunction([], []))

        def real_write():
            policy.real_loss[1] += 0.25

        for change in (lambda: play(0.0), lambda: play(0.5), real_write, bare_charge):
            change()
            clone = rebuilt(state)
            assert rebase_bits(state, state.weights()) == rebase_bits(clone, clone._rebase())

    def test_rejects_advice_rows_that_are_not_distributions(self):
        policy, reference = self.make(), self.make()
        for row in ([np.nan, np.nan], [0.9, 0.9]):
            with pytest.raises(ValueError, match="expert advice row 1 "):
                policy.advise(np.array([ADVICES[0], row]))
        # A rejected matrix opens no round: the next advise matches a fresh policy.
        np.testing.assert_array_equal(policy.advise(ADVICES)[0], reference.advise(ADVICES)[0])
