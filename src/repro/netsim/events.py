"""Deterministic event core of the network simulator.

The simulator is a discrete-event loop: every state change is an event
with a simulation timestamp, and the core always hands back the earliest
pending one.  Two properties matter for the byte-identical parallel sweeps
the orchestrator promises:

* **Total order.**  Events are keyed by ``(time_s, sequence)`` where the
  sequence number records insertion order, so simultaneous events pop in
  the order they were scheduled — never in payload-comparison or hash
  order.  No wall-clock or id()-based tie-breaking sneaks in.
* **No hidden entropy.**  The core itself never touches a random
  generator; all randomness flows through the simulator's
  ``SeedSequence``-derived generators in pop order.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from operator import itemgetter
from typing import Any, Iterable

from ..exceptions import ConfigurationError

__all__ = ["EventKind", "EpochEventCore"]


class EventKind(IntEnum):
    """What an event asks the simulator to do when it fires."""

    ARRIVAL = 0
    """A traffic request enters its source ONI's injection queue."""

    DEPARTURE = 1
    """A scheduled (re)transmission finishes serialising on its channel."""

    RETRY = 2
    """A backed-off ARQ attempt (or a deferred transfer waiting out a
    blackout) re-enters the channel-request path."""

    LINK_FAULT = 3
    """A channel's hard-fault health changes (see
    :mod:`repro.netsim.failures`); drives availability accounting and the
    degradation ladder's reactions."""


class EpochEventCore:
    """Merge-ordered event core: a presorted static schedule + a dynamic heap.

    It exploits the workload's structure: the bulk of the events (arrivals
    and fault transitions) are known up front, so they are sequenced once,
    sorted once and consumed by cursor — no per-event heap traffic, no
    per-event object allocation.  Only the events scheduled *during* the
    run (departures, retries) go through a small ``heapq`` of plain tuples
    whose comparisons never leave C (the ``(time, sequence)`` prefix is
    always decisive because sequence numbers are unique).

    The order it hands events out in is the plain heap's total order:
    ``(time_s, sequence)`` with sequence numbers assigned in push order,
    static events first.  That equivalence — plus no event lost or
    duplicated across the static/dynamic boundary — is what the
    property-based suite (``tests/netsim/test_event_core.py``) pins against
    a plain-heap model and the test oracle's event queue.
    """

    __slots__ = ("_static", "_cursor", "_heap", "_sequence", "events_processed")

    def __init__(self, static_events: Iterable[tuple] = ()) -> None:
        """``static_events`` yields ``(time_s, kind, payload)`` in push order."""
        static: list[tuple] = [
            (float(time_s), sequence, kind, payload)
            for sequence, (time_s, kind, payload) in enumerate(static_events)
        ]
        # min() compares the (time, sequence) prefix only — sequence numbers
        # are unique — so this is the same per-event check as push(), in
        # C-level passes instead of a Python-level loop.  A NaN time compares
        # false both ways, so min() can step over it; the sum of the times
        # is NaN exactly when one of them is (or when -inf, itself negative,
        # meets +inf).
        if static:
            earliest = min(static)[0]
            total = sum(map(itemgetter(0), static))
            if not earliest >= 0.0 or total != total:
                raise ConfigurationError("event times must be non-negative, not NaN")
        # Unique sequence numbers make the (time, sequence) prefix decisive,
        # so tuple comparison never reaches the kind/payload slots.
        static.sort()
        self._static = static
        self._cursor = 0
        self._heap: list[tuple] = []
        self._sequence = len(static)
        #: Number of events popped so far (the benchmark's events/s basis).
        self.events_processed = 0

    def __len__(self) -> int:
        return len(self._static) - self._cursor + len(self._heap)

    def push(self, time_s: float, kind: EventKind, payload: Any = None) -> None:
        """Schedule a dynamic event (sequenced after every static one)."""
        time_s = float(time_s)
        if not time_s >= 0.0:
            raise ConfigurationError(f"event time must be non-negative, got {time_s!r}")
        heapq.heappush(self._heap, (time_s, self._sequence, kind, payload))
        self._sequence += 1
