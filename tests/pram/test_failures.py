"""Unit tests for failure events, patterns and decisions."""

import pickle

from repro.pram.failures import (
    AFTER_ALL_WRITES,
    BEFORE_WRITES,
    Decision,
    FailureEvent,
    FailurePattern,
    FailureTag,
)


class TestFailureEvent:
    def test_tags(self):
        failure = FailureEvent(FailureTag.FAILURE, 1, 10)
        restart = FailureEvent(FailureTag.RESTART, 1, 12)
        assert failure.is_failure() and not failure.is_restart()
        assert restart.is_restart() and not restart.is_failure()


class TestFailurePattern:
    def test_size_counts_both_tags(self):
        pattern = FailurePattern()
        pattern.record(FailureTag.FAILURE, 0, 1)
        pattern.record(FailureTag.RESTART, 0, 2)
        pattern.record(FailureTag.FAILURE, 1, 2)
        assert pattern.size == 3
        assert pattern.failure_count == 2
        assert pattern.restart_count == 1

    def test_events_at_time(self):
        pattern = FailurePattern()
        pattern.record(FailureTag.FAILURE, 0, 1)
        pattern.record(FailureTag.FAILURE, 1, 2)
        assert len(pattern.events_at(2)) == 1
        assert pattern.events_at(2)[0].pid == 1
        assert pattern.events_at(99) == ()

    def test_events_for_pid(self):
        pattern = FailurePattern()
        pattern.record(FailureTag.FAILURE, 7, 1)
        pattern.record(FailureTag.RESTART, 7, 3)
        pattern.record(FailureTag.FAILURE, 2, 3)
        assert [event.time for event in pattern.events_for(7)] == [1, 3]

    def test_iteration_order_preserved(self):
        pattern = FailurePattern()
        for time in [5, 3, 9]:
            pattern.record(FailureTag.FAILURE, 0, time)
        assert [event.time for event in pattern] == [5, 3, 9]


class TestCompactPattern:
    """The array-backed pattern behaves like the list of events it stores."""

    EVENTS = [
        FailureEvent(FailureTag.FAILURE, 3, 1),
        FailureEvent(FailureTag.FAILURE, 5, 1),
        FailureEvent(FailureTag.RESTART, 3, 2),
        FailureEvent(FailureTag.RESTART, 5, 2),
        FailureEvent(FailureTag.FAILURE, 0, 2),
        FailureEvent(FailureTag.RESTART, 0, 4),
    ]

    def built(self):
        pattern = FailurePattern()
        pattern.record_many(FailureTag.FAILURE, [3, 5], 1)
        pattern.record_many(FailureTag.RESTART, (3, 5), 2)
        pattern.record_many(FailureTag.RESTART, [], 3)
        pattern.record(FailureTag.FAILURE, 0, 2)
        pattern.record_many(FailureTag.RESTART, [0], 4)
        return pattern

    def test_record_many_equals_repeated_record(self):
        one_by_one = FailurePattern()
        for event in self.EVENTS:
            one_by_one.record(event.tag, event.pid, event.time)
        assert list(self.built()) == list(one_by_one) == self.EVENTS

    def test_constructor_iterates_back_equal_events(self):
        pattern = FailurePattern(self.EVENTS)
        assert list(pattern) == self.EVENTS
        assert all(type(event) is FailureEvent for event in pattern)

    def test_counts_and_queries(self):
        pattern = self.built()
        assert len(pattern) == pattern.size == 6
        assert pattern.failure_count == 3
        assert pattern.restart_count == 3
        assert pattern.events_at(2) == tuple(self.EVENTS[2:5])
        assert pattern.events_at(3) == ()
        assert pattern.events_for(3) == (self.EVENTS[0], self.EVENTS[2])
        assert pattern.events_for(9) == ()
        empty = FailurePattern()
        assert (len(empty), empty.failure_count, empty.restart_count) == \
            (0, 0, 0)

    def test_pickle_round_trip(self):
        pattern = self.built()
        restored = pickle.loads(pickle.dumps(pattern))
        assert list(restored) == self.EVENTS
        assert restored.restart_count == 3
        # The copy owns its arrays: recording into it leaves the
        # original alone.
        restored.record(FailureTag.FAILURE, 1, 9)
        assert len(restored) == 7 and len(pattern) == 6


class TestDecision:
    def test_none(self):
        decision = Decision.none()
        assert not decision.failures
        assert not decision.restarts

    def test_fail_helper(self):
        decision = Decision.fail([3, 1], BEFORE_WRITES)
        assert decision.failures == {1: BEFORE_WRITES, 3: BEFORE_WRITES}

    def test_fail_after_all_writes(self):
        decision = Decision.fail([0], AFTER_ALL_WRITES)
        assert decision.failures[0] == AFTER_ALL_WRITES

    def test_restart_helper(self):
        decision = Decision.restart([2, 4])
        assert decision.restarts == frozenset({2, 4})

    def test_merged_with_later_wins(self):
        first = Decision(failures={0: 0, 1: 1})
        second = Decision(failures={1: 2}, restarts=frozenset({5}))
        merged = first.merged_with(second)
        assert merged.failures == {0: 0, 1: 2}
        assert merged.restarts == frozenset({5})
