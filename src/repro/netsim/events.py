"""Event kinds of the network simulator's discrete-event loop.

Every state change of a run is an event with a simulation timestamp, and
the loop always handles the earliest pending one.  Two properties matter
for the byte-identical parallel sweeps the orchestrator promises:

* **Total order.**  Events are keyed by ``(time_s, sequence)`` where the
  sequence number records insertion order, so simultaneous events pop in
  the order they were scheduled — never in payload-comparison or hash
  order.  No wall-clock or id()-based tie-breaking sneaks in.
* **No hidden entropy.**  Ordering never touches a random generator; all
  randomness flows through the simulator's ``SeedSequence``-derived
  generators in pop order.

The loop itself is :class:`repro.netsim.epoch._Run`'s ``drain``.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["EventKind"]


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
