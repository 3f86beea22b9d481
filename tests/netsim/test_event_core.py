"""Property-based ordering invariants for the event cores.

:class:`~repro.netsim.events.EpochEventCore` promises exactly
:class:`oracle.EventQueue`'s total order — ``(time_s,
insertion sequence)``, static events sequenced before every dynamic one —
while serving the static bulk by cursor instead of heap.  The engine pops
inline in ``run_batched``; the tests pop through :func:`pop`, a test-local
copy of that merge over the core's static list, cursor and heap.
Hypothesis drives both against a plain ``heapq`` model with arbitrary
interleavings of pushes and pops, timestamp ties included, so any
divergence in ordering, loss or duplication across the static/dynamic
boundary shows up as a shrunk counterexample.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st
from oracle import EventQueue

from repro.exceptions import ConfigurationError
from repro.netsim.events import EpochEventCore, EventKind

# Continuous times rarely tie; coarse integer-derived times tie constantly.
# Both matter: ties exercise the sequence-number tie-break, distinct times
# exercise the merge between the static cursor and the dynamic heap.
_smooth_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_tying_times = st.integers(min_value=0, max_value=4).map(float)
_times = st.one_of(_smooth_times, _tying_times)

#: An operation: ``None`` pops, a float pushes a dynamic event at that time.
_ops = st.lists(st.one_of(st.none(), _times), max_size=80)


def pop(core):
    """Earliest pending event, merged the way ``run_batched``'s inline pop does.

    Heap events strictly earlier than the next static one go first; at equal
    times the static event wins, its sequence number being the smaller.
    ``None`` when the core is dry.
    """
    static, heap = core._static, core._heap
    cursor = core._cursor
    if cursor < len(static) and not (heap and heap[0][0] < static[cursor][0]):
        core._cursor = cursor + 1
        core.events_processed += 1
        return static[cursor]
    if heap:
        core.events_processed += 1
        return heapq.heappop(heap)
    return None


def _static_events(times):
    return [(t, EventKind.ARRIVAL, ("static", i)) for i, t in enumerate(times)]


class TestEpochEventCoreVsHeapModel:
    @given(static=st.lists(_times, max_size=40), ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_pushes_and_pops_match_the_model(self, static, ops):
        core = EpochEventCore(_static_events(static))
        model = [
            (t, i, EventKind.ARRIVAL, ("static", i)) for i, t in enumerate(static)
        ]
        heapq.heapify(model)
        sequence = len(static)
        pops = 0
        for op in ops:
            if op is None:
                got = pop(core)
                if model:
                    assert got == heapq.heappop(model)
                    pops += 1
                else:
                    assert got is None
            else:
                payload = ("dynamic", sequence)
                core.push(op, EventKind.DEPARTURE, payload)
                heapq.heappush(model, (op, sequence, EventKind.DEPARTURE, payload))
                sequence += 1
            assert len(core) == len(model)
            assert bool(core) == bool(model)
        while model:
            assert pop(core) == heapq.heappop(model)
            pops += 1
        assert pop(core) is None
        assert core.events_processed == pops

    @given(static=st.lists(_times, min_size=1, max_size=40), ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_drain_order_is_the_total_order(self, static, ops):
        """Popped keys are non-decreasing and unique in (time, sequence)."""
        core = EpochEventCore(_static_events(static))
        for op in ops:
            if op is not None:
                core.push(op, EventKind.DEPARTURE, None)
        drained = []
        while True:
            event = pop(core)
            if event is None:
                break
            drained.append(event[:2])
        assert drained == sorted(drained)
        assert len(set(drained)) == len(drained)
        assert len(drained) == len(static) + sum(op is not None for op in ops)

    @given(static=st.lists(_times, max_size=30), dynamic=st.lists(_times, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_event_queue(self, static, dynamic):
        """Same pushes, same total order as the oracle's EventQueue."""
        core = EpochEventCore(_static_events(static))
        queue = EventQueue()
        for t, kind, payload in _static_events(static):
            queue.push(t, kind, payload)
        for i, t in enumerate(dynamic):
            core.push(t, EventKind.DEPARTURE, ("dynamic", i))
            queue.push(t, EventKind.DEPARTURE, ("dynamic", i))
        while queue:
            event = queue.pop()
            got = pop(core)
            assert got == (event.time_s, event.sequence, event.kind, event.payload)
        assert pop(core) is None

    @given(when=st.integers(min_value=0, max_value=20), times=st.lists(_times, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_epoch_drain_boundary_keeps_sequencing(self, when, times):
        """Pops interleaved at an arbitrary point never disturb later order.

        This is the engine's actual usage: drain an epoch, schedule a batch
        of departures, drain again.
        """
        core = EpochEventCore(_static_events(times))
        model = [(t, i, EventKind.ARRIVAL, ("static", i)) for i, t in enumerate(times)]
        heapq.heapify(model)
        for _ in range(min(when, len(model))):
            assert pop(core) == heapq.heappop(model)
        sequence = len(times)
        for offset, t in enumerate(times):
            payload = ("epoch", offset)
            core.push(t, EventKind.RETRY, payload)
            heapq.heappush(model, (t, sequence, EventKind.RETRY, payload))
            sequence += 1
        while model:
            assert pop(core) == heapq.heappop(model)


class TestValidation:
    def test_negative_static_time_raises(self):
        with pytest.raises(ConfigurationError):
            EpochEventCore([(-1e-9, EventKind.ARRIVAL, None)])

    def test_negative_push_time_raises(self):
        core = EpochEventCore([(0.0, EventKind.ARRIVAL, None)])
        with pytest.raises(ConfigurationError):
            core.push(-1.0, EventKind.DEPARTURE, None)

    @pytest.mark.parametrize("position", [0, 1, 25, 49])
    def test_nan_static_time_raises_wherever_it_sits(self, position):
        # A NaN compares false both ways, so min() alone can step over it.
        times = [float(index) for index in range(50)]
        times[position] = float("nan")
        with pytest.raises(ConfigurationError):
            EpochEventCore((t, EventKind.ARRIVAL, None) for t in times)

    def test_negative_static_time_beside_nan_raises(self):
        with pytest.raises(ConfigurationError):
            EpochEventCore(
                [
                    (float("nan"), EventKind.ARRIVAL, None),
                    (-1.0, EventKind.ARRIVAL, None),
                ]
            )

    def test_nan_push_time_raises(self):
        core = EpochEventCore([(0.0, EventKind.ARRIVAL, None)])
        with pytest.raises(ConfigurationError):
            core.push(float("nan"), EventKind.DEPARTURE, None)
        assert len(core) == 1

    def test_empty_core_pops_none(self):
        core = EpochEventCore()
        assert pop(core) is None
        assert not core
        assert len(core) == 0
