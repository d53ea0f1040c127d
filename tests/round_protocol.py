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


def play_bits(play):
    """Every field of a play, field by field, as ``bits``."""
    return {f.name: bits(getattr(play, f.name)) for f in fields(play)}


def first_played_arm(p):
    return int(np.flatnonzero(np.asarray(p) > 0.0)[0])


def rebase_bits(state):
    """The bytes of all a rebase sets: real weights, block prefixes, total, shares."""
    splits = [share for n in range(state.size + 1) for share in state.split(n)]
    return (np.array([state.total, state.base, *splits]).tobytes(),
            state.real_weights.tobytes(), state._prefix.tobytes())


class RoundProtocolContract:
    def test_state_machine_guards(self):
        policy, reference = self.make(), self.make()
        with pytest.raises(RuntimeError, match="without a pending"):
            policy.update(0, 0.5)
        policy.advise(ADVICES)
        with pytest.raises(RuntimeError, match="before update"):
            policy.advise(ADVICES)
        policy.update(0, 0.5)
        with pytest.raises(RuntimeError, match="without a pending"):
            policy.update(0, 0.5)
        policy.advise(ADVICES)
        policy.update(0, 0.5)
        # The refused calls left no trace: two rounds charged, none pending.
        for _ in range(2):
            reference.advise(ADVICES)
            reference.update(0, 0.5)
        assert policy._pending is None
        assert bits(policy.state.real_loss) == bits(reference.state.real_loss)

    def test_zero_probability_play_is_an_error(self):
        policy, advices = self.starved_round()
        p, _ = policy.advise(advices)
        assert p[1] == 0.0
        with pytest.raises(RuntimeError, match="zero probability"):
            policy.update(1, 0.5)

    def test_zero_loss_play_is_still_checked(self):
        # A zero loss charges nobody, yet the play it is reported for is
        # checked as any other: on an arm of zero probability or outside
        # the arms it is an error.
        policy, advices = self.starved_round()
        p, _ = policy.advise(advices)
        assert p[1] == 0.0
        with pytest.raises(RuntimeError, match="zero probability"):
            policy.update(1, 0.0)
        for arm in (-1, 2, 5):
            with pytest.raises(ValueError, match="arm"):
                policy.update(arm, 0.0)

    def test_rejects_out_of_range_loss_and_arm(self):
        policy, reference = self.make(), self.make()
        policy.advise(ADVICES)
        pending = policy._pending
        for arm in (-1, 2, 5):
            with pytest.raises(ValueError, match="arm"):
                policy.update(arm, 0.5)
        with pytest.raises(ValueError, match="loss"):
            policy.update(0, 1.5)
        # The rejected updates changed nothing: the round still waits, the
        # real losses are a fresh policy's, the round still completes, and
        # the next round matches a policy that never saw them.
        assert policy._pending is pending
        np.testing.assert_array_equal(policy.state.real_loss, reference.state.real_loss)
        policy.update(0, 0.5)
        reference.advise(ADVICES)
        reference.update(0, 0.5)
        np.testing.assert_array_equal(policy.advise(ADVICES)[0], reference.advise(ADVICES)[0])

    def test_update_leaves_the_play_and_the_advice_unchanged(self):
        # The pending round is the advice matrix ``advise`` took and the play
        # it returned; ``update`` charges them and writes to neither.
        policy = self.make()
        for loss in (0.5, 0.0, 0.0, 1.0):   # the third round reuses the second's play
            advices = ADVICES.copy()
            p, play = policy.advise(advices)
            assert policy._pending[0] is advices and policy._pending[1] is play
            before = play_bits(play), bits(advices)
            policy.update(first_played_arm(p), loss)
            assert (play_bits(play), bits(advices)) == before
            assert policy._pending is None

    def test_repeated_round_returns_the_same_play(self):
        # A round that repeats the last one's key, no rebase and the same
        # advice bytes, returns the last round's ``Play`` object; a new
        # advice matrix or a charged round gives a new one.
        policy = self.make()
        plays = []
        for advices, loss in ((ADVICES, 0.0), (ADVICES.copy(), 0.0), (ADVICES[::-1], 0.0),
                              (ADVICES[::-1], 0.5), (ADVICES[::-1], 0.0)):
            p, play = policy.advise(advices)
            assert p is play.p_original
            policy.update(first_played_arm(p), loss)
            plays.append(play)
        assert plays[1] is plays[0]
        assert plays[2] is not plays[1] and plays[3] is plays[2]
        assert plays[4] is not plays[3]

    def test_update_charges_the_weight_state(self):
        # ``state.real_loss`` is a view of the weight state's leads, not a
        # copy: the charge ``update`` makes lands in the state, and the next
        # rebase weighs the charged expert down.
        policy = self.make()
        p, _ = policy.advise(ADVICES)
        policy.update(0, 0.5)
        est = 0.5 / p[0]
        assert policy.state.real_loss.tolist() == [est, 0.4 * est]
        assert np.shares_memory(policy.state.real_loss, policy.state.lead)
        policy.state.weights()
        assert policy.state.real_weights[0] < policy.state.real_weights[1] == 1.0

    def test_weights_match_a_forced_rebase(self):
        # ``weights`` keeps its last rebase while no cumulative loss has
        # changed.  After a zero-loss round, a charged round, a write
        # through ``state.real_loss`` and a bare charge alike, what it serves is
        # bit for bit what a copy of the state computes by rebasing anyway.
        policy = self.make()
        state = policy.state

        def play(loss):
            p, _ = policy.advise(ADVICES)
            policy.update(first_played_arm(p), loss)

        def bare_charge():
            half = state.size // 2
            state.charge(StepFunction([0, half], [0.25, 0.5]) if half else StepFunction([], []))

        def real_write():
            policy.state.real_loss[1] += 0.25

        for change in (lambda: play(0.0), lambda: play(0.5), real_write, bare_charge):
            change()
            clone = copy.deepcopy(state)
            state.weights()
            clone._rebase()
            assert rebase_bits(state) == rebase_bits(clone)

    def test_reused_play_is_the_play_of_a_fresh_solve(self):
        # A round reuses the last play while no rebase has run and the
        # advice bytes repeat.  After each kind of change, what ``advise``
        # returns is bit for bit what ``_play`` computes on a deep copy
        # after a forced rebase, and the pending round holds this round's
        # advice array and play.
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
            policy.state.real_loss[1] += 0.25
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
            want = clone._play(round_advices)
            p, play = policy.advise(round_advices)
            assert bits(p) == bits(want.p_original) and play_bits(play) == play_bits(want)
            assert policy._pending[0] is round_advices and policy._pending[1] is play
            assert (last is not None and play is last) == reused
            policy.update(first_played_arm(p), loss)
            last = play

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
            p, _ = policy.advise(other if t % 7 == 6 else ADVICES)
            arm = policy.sample(p)
            assert arm == sample_index(p, uniforms.random())
            policy.update(arm, float(rng.uniform()) if rng.random() < 0.3 else 0.0)
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
                policy.update(policy.sample(last[0]), loss)
            clone = copy.deepcopy(policy)
            state = clone.state
            assert state is not policy.state
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
                    p, play = each.advise(advices)
                    arm = each.sample(p)
                    each.update(arm, loss)
                    outcomes.append((bits(p), play_bits(play), arm))
                reused += p is last[0]
                last = p, play
                assert outcomes[0] == outcomes[1]
            assert reused >= 10

    def test_deep_copy_of_a_pending_round_plays_on_as_the_original(self):
        # A deep copy taken between ``advise`` and ``update`` holds the
        # pending advice and play of its own; it updates, then advises,
        # samples and updates every later round bit for bit as the original.
        # The copied round repeats the last play, so the copy's pending play
        # is its last play and the distribution it last drew from.
        policy = self.make()
        for loss in (0.5, 0.0):
            p, _ = policy.advise(ADVICES)
            policy.update(policy.sample(p), loss)
        p, play = policy.advise(ADVICES)
        arm = policy.sample(p)
        clone = copy.deepcopy(policy)
        advices, pending = clone._pending
        assert pending is clone._last_play and pending.p_original is clone._drawn
        assert play_bits(pending) == play_bits(play) and pending is not play
        assert bits(advices) == bits(ADVICES) and advices is not policy._pending[0]
        rng = np.random.default_rng(29)
        other = np.array([[0.2, 0.8], [0.5, 0.5]])
        for each in (clone, policy):
            each.update(arm, 0.5)
        for t in range(200):
            advices = other if t % 9 == 8 else ADVICES
            loss = float(rng.uniform()) if rng.random() < 0.3 else 0.0
            outcomes = []
            for each in (clone, policy):
                p, play = each.advise(advices)
                arm = each.sample(p)
                each.update(arm, loss)
                outcomes.append((bits(p), play_bits(play), arm, bits(each.state.real_loss)))
            assert outcomes[0] == outcomes[1]

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
                p, _ = each.advise(ADVICES)
                each.update(first_played_arm(p), 0.0)
        for row in ([np.nan, np.nan], [0.9, 0.9], [0.9, 0.9]):
            with pytest.raises(ValueError, match="expert advice row 1 "):
                policy.advise(np.array([ADVICES[0], row]))
        for advices in (ADVICES, ADVICES[::-1]):
            got, want = policy.advise(advices), reference.advise(advices)
            assert bits(got[0]) == bits(want[0]) and play_bits(got[1]) == play_bits(want[1])
            for each, (p, _) in ((policy, got), (reference, want)):
                each.update(first_played_arm(p), 0.0)
