"""Round-protocol tests that every ``ExpertPolicy`` subclass must pass.

A test class inherits ``RoundProtocolContract`` and supplies two static
methods: ``make()``, a fresh policy with two arms and two experts, and
``starved_round()``, a fresh policy with an advice matrix on which it
plays arm 1 with probability zero.
"""

import copy
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from myga.simplex import sample_index
from myga.truncation import StepFunction

ADVICES = np.array([[1.0, 0.0], [0.4, 0.6]])


def bits(value):
    """A value's exact content: floats by their bits, arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(bits(v) for v in value)
    if is_dataclass(value):
        return type(value).__name__, bits([getattr(value, f.name) for f in fields(value)])
    return type(value).__name__, value


def trace_bits(trace):
    """Every field of a trace and of its play, field by field, as ``bits``."""
    found = {f.name: bits(getattr(trace, f.name)) for f in fields(trace) if f.name != "play"}
    found.update((f"play.{f.name}", bits(getattr(trace.play, f.name)))
                 for f in fields(trace.play))
    return found


def first_played_arm(p):
    return int(np.flatnonzero(np.asarray(p) > 0.0)[0])


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
        for loss in (0.5, 0.0, 0.0, 1.0):   # the third round reuses the second's play
            p, trace = policy.advise(ADVICES)
            before = trace_bits(trace)
            policy.update(trace, first_played_arm(p), loss)
            assert trace_bits(trace) == before

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
            policy.update(trace, first_played_arm(p), loss)

        def bare_charge():
            half = state.size // 2
            state.charge(StepFunction([0, half], [0.25, 0.5]) if half else StepFunction([], []))

        def real_write():
            policy.real_loss[1] += 0.25

        for change in (lambda: play(0.0), lambda: play(0.5), real_write, bare_charge):
            change()
            clone = copy.deepcopy(state)
            assert rebase_bits(state, state.weights()) == rebase_bits(clone, clone._rebase())

    def test_reused_play_is_the_play_of_a_fresh_solve(self):
        # A round reuses the last play while no rebase has run and the
        # advice bytes repeat.  After each kind of change, what ``advise``
        # returns is bit for bit what ``_play`` computes on a deep copy
        # after a forced rebase, and the trace carries this round's ``t``
        # and advice array.
        policy = self.make()
        state = policy.state
        advices = ADVICES.copy()

        def same():
            return advices

        def new_array():
            return advices.copy()

        def in_place():
            advices[...] = ADVICES[::-1]
            return advices

        def real_write():
            policy.real_loss[1] += 0.25
            return advices

        def bare_charge():
            half = state.size // 2
            state.charge(StepFunction([0, half], [0.25, 0.5]) if half else StepFunction([], []))
            return advices

        # (the round's advice, the loss its update reports, whether the play is reused);
        # a bare charge of a grid-free state charges nothing.
        rounds = ((same, 0.0, False), (same, 0.0, True), (new_array, 0.0, True),
                  (in_place, 0.5, False), (same, 0.0, False), (real_write, 0.0, False),
                  (bare_charge, 0.0, state.size == 0), (same, 0.0, True))
        last = None
        for change, loss, reused in rounds:
            round_advices = change()
            clone = copy.deepcopy(policy)
            clone.state._rebase()
            want = policy._trace_type(policy.t, round_advices, clone._play(round_advices))
            p, trace = policy.advise(round_advices)
            assert bits(p) == bits(want.p_original) and trace_bits(trace) == trace_bits(want)
            assert trace.t == policy.t and trace.advices is round_advices
            assert (last is not None and trace.play is last.play) == reused
            policy.update(trace, first_played_arm(p), loss)
            last = trace

    def test_samples_match_one_uniform_per_round(self):
        # ``sample`` takes its uniforms from blocks of the sample
        # generator's stream; over three blocks its arms are those drawn
        # with one ``random()`` call of the same generator per round.
        policy = self.make()
        uniforms = copy.deepcopy(policy.rng)
        rng = np.random.default_rng(23)
        other = np.array([[0.2, 0.8], [0.5, 0.5]])
        arms = []
        for t in range(2500):
            p, trace = policy.advise(other if t % 7 == 6 else ADVICES)
            arm = policy.sample(p)
            assert arm == sample_index(p, uniforms.random())
            policy.update(trace, arm, float(rng.uniform()) if rng.random() < 0.3 else 0.0)
            arms.append(arm)
        assert 0 < sum(arms) < len(arms)

    def test_deep_copy_plays_on_as_the_original(self):
        # A deep copy taken mid-run, before a round that reuses the last
        # play, has buffers of its own and views of them; it then plays
        # every later round bit for bit as the original does.  Taken at
        # round 1500, partway through the second block of sample uniforms,
        # it holds the block's unused part and samples on into the third.
        for rounds_before, rounds_after in ((2, 50), (1500, 1000)):
            policy = self.make()
            for t in range(rounds_before):
                last = policy.advise(ADVICES)
                loss = 0.0 if t == rounds_before - 1 else 0.5   # the next round reuses the play
                policy.update(last[1], policy.sample(last[0]), loss)
            clone = copy.deepcopy(policy)
            state = clone.state
            assert clone.real_loss is state.real_loss
            assert np.shares_memory(state.real_loss, state.lead)
            assert np.shares_memory(state.real_weights, state._weight)
            assert not np.shares_memory(state.lead, policy.state.lead)
            rng = np.random.default_rng(19)
            other = np.array([[0.2, 0.8], [0.5, 0.5]])
            reused = 0
            for t in range(rounds_after):
                advices = other if t % 9 == 8 else ADVICES
                loss = float(rng.uniform()) if rng.random() < 0.3 else 0.0
                outcomes = []
                for each in (clone, policy):
                    p, trace = each.advise(advices)
                    arm = each.sample(p)
                    each.update(trace, arm, loss)
                    outcomes.append((bits(p), trace_bits(trace), arm))
                reused += p is last[0]
                last = p, trace
                assert outcomes[0] == outcomes[1]
            assert reused >= 10

    def test_rejects_advice_rows_that_are_not_distributions(self):
        policy, reference = self.make(), self.make()
        for row in ([np.nan, np.nan], [0.9, 0.9]):
            with pytest.raises(ValueError, match="expert advice row 1 "):
                policy.advise(np.array([ADVICES[0], row]))
        # A rejected matrix opens no round: the next advise matches a fresh policy.
        np.testing.assert_array_equal(policy.advise(ADVICES)[0], reference.advise(ADVICES)[0])

    def test_rejects_advice_rows_after_a_reused_round(self):
        # A rejected matrix is checked as on any other round and leaves no
        # play to reuse: offered again it is rejected again, and the next
        # valid round matches a policy that never saw it.
        policy, reference = self.make(), self.make()
        for each in (policy, reference):
            for _ in range(2):   # the second round reuses the first's play
                p, trace = each.advise(ADVICES)
                each.update(trace, first_played_arm(p), 0.0)
        for row in ([np.nan, np.nan], [0.9, 0.9], [0.9, 0.9]):
            with pytest.raises(ValueError, match="expert advice row 1 "):
                policy.advise(np.array([ADVICES[0], row]))
        for advices in (ADVICES, ADVICES[::-1]):
            got, want = policy.advise(advices), reference.advise(advices)
            assert bits(got[0]) == bits(want[0]) and trace_bits(got[1]) == trace_bits(want[1])
            for each, (p, trace) in ((policy, got), (reference, want)):
                each.update(trace, first_played_arm(p), 0.0)
