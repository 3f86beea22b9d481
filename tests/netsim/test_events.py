"""Tests for the test oracle's deterministic event queue."""

from __future__ import annotations

import pytest
from oracle import Event, EventQueue

from repro.exceptions import ConfigurationError
from repro.netsim.events import EventKind


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.ARRIVAL, "c")
        queue.push(1.0, EventKind.ARRIVAL, "a")
        queue.push(2.0, EventKind.DEPARTURE, "b")
        assert [event.payload for event in queue.drain()] == ["a", "b", "c"]

    def test_simultaneous_events_pop_in_insertion_order(self):
        queue = EventQueue()
        for index in range(50):
            queue.push(1.0, EventKind.ARRIVAL, index)
        assert [event.payload for event in queue.drain()] == list(range(50))

    def test_interleaved_push_pop_keeps_order(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, "first")
        first = queue.pop()
        assert first.payload == "first"
        # A later push at the same time as a pending event must pop after it.
        queue.push(2.0, EventKind.ARRIVAL, "pending")
        queue.push(2.0, EventKind.DEPARTURE, "later")
        assert [event.payload for event in queue.drain()] == ["pending", "later"]

    def test_events_processed_counter(self):
        queue = EventQueue()
        for index in range(5):
            queue.push(float(index), EventKind.ARRIVAL)
        list(queue.drain())
        assert queue.events_processed == 5

    def test_len_and_truthiness(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(0.0, EventKind.ARRIVAL)
        assert queue and len(queue) == 1

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ConfigurationError):
            queue.push(-1.0, EventKind.ARRIVAL)

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ConfigurationError):
            queue.push(float("nan"), EventKind.ARRIVAL)
        assert not queue

    def test_pop_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EventQueue().pop()

    def test_event_ordering_ignores_payload(self):
        # Payloads are not comparable; ordering must never touch them.
        early = Event(1.0, 0, EventKind.ARRIVAL, object())
        late = Event(2.0, 1, EventKind.ARRIVAL, object())
        assert early < late


class TestMidDrainRobustness:
    """A consumer exception must not tear the heap mid-drain."""

    def test_consumer_exception_leaves_remaining_events_intact(self):
        queue = EventQueue()
        for index in range(6):
            queue.push(float(index), EventKind.ARRIVAL, index)
        with pytest.raises(RuntimeError):
            for event in queue.drain():
                if event.payload == 2:
                    raise RuntimeError("handler blew up")
        # The failing event was popped (drain pops before yielding), the
        # survivors still pop in order, and the counter saw only real pops.
        assert queue.events_processed == 3
        assert len(queue) == 3
        assert [event.payload for event in queue.drain()] == [3, 4, 5]
        assert queue.events_processed == 6

    def test_resumed_drain_accepts_new_pushes(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, "a")
        queue.push(3.0, EventKind.ARRIVAL, "c")
        with pytest.raises(ValueError):
            for event in queue.drain():
                raise ValueError("first event is poison")
        # Ordering invariants survive the abort: a push landing between the
        # abort and the resume still sorts against the pending events.
        queue.push(2.0, EventKind.DEPARTURE, "b")
        assert [event.payload for event in queue.drain()] == ["b", "c"]
