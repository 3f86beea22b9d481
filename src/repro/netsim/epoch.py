"""Epoch-batched event loop of the network simulator, and the run it drives.

This module is the event loop behind
:meth:`repro.netsim.engine.NetworkSimulator.run`: the semantics of a plain
per-event heap loop (one event object per state change, one handler call
per event — the test suite keeps that loop as its oracle,
``tests/netsim/oracle.py``), restructured so the hot path is array-shaped.
One :class:`_Run` owns everything a run changes; its :meth:`_Run.drain` is
the one loop that serves every run.  Three structural changes carry it:

**Merge-ordered events.**  The bulk of the event stream (arrivals, fault
transitions) is known before the run starts, so it is sequenced and sorted
once and popped off the end of a list; only run-time events (departures,
retries) go through the run's small tuple heap.  The loop merges the two
inline: the next static event is compared with the heap's top by time
alone, because every static sequence number is smaller than every dynamic
one, so a static event wins a tie.  No per-event object allocation, no
Python ``__lt__`` calls.  An arrival event carries its request's fields,
so a run fed a generator's columns builds no request object at all.

**Flush-on-demand epoch sampling.**  The schedule-time sampling contract
(see :mod:`repro.netsim.outcomes`) fixes an attempt's primary draw to
exactly one double, compared against the attempt-level failure
probability, and resolves failing attempts from a separate stream.  The
loop therefore does not draw when an attempt is scheduled — it queues the
attempt's gate and keeps processing events.  The moment a departure pops
whose gate is still queued, the epoch *flushes*: one ``Generator.random``
call covers every queued gate in schedule order, and only the flagged
attempts — rare at the BERs links are designed for — run the conditional
per-attempt resolution.  An epoch is thus the longest stretch of events
with no data dependency on an undrawn outcome (in steady state: the set of
in-flight attempts).

**Parked first attempts.**  In a probabilistic run a transfer's first
attempt is computed in full when the transfer arrives: its margin and the
channel's reconfiguration block, its health and ladder action, the arbiter
start, its drifted or fault-penalised raw BER, gate probability and energy.
When the channel is up and serves it, the attempt is *parked*: it goes into
the departure heap as the finished
:class:`~repro.netsim.engine.NetTransferRecord` it has when its gate comes
back clean, with the gate queued for the next flush.  A parked transfer
allocates no ``_TransferState`` and calls no handler method.  When its
record pops, the adaptive controller's telemetry (one draw on the
telemetry stream, then ``observe``) is charged, where the oracle's
departure handler charges it.  A flush that flags a parked gate swaps in
the stateful transfer the record stood in for, before its departure pops.
Every other attempt is stateful and goes through the one
:meth:`_Run.schedule_attempt`: re-attempts, deferred retries, first
attempts on a channel the ladder finds down or does not serve (deferred or
dropped), first attempts that start in a blackout (certain loss), and
every attempt of a bit-exact run.

**Determinism argument.**  Event order is byte-identical to the oracle's
because the loop implements the same ``(time, insertion-sequence)`` total
order over the same push sequence: a parked record takes the sequence
number the oracle's DEPARTURE push takes, from the run's one counter,
which the cold handlers' RETRY pushes advance too.  Randomness is
byte-identical because ``Generator.random`` fills requests sequentially
from the bit stream — one flush of N queued gates consumes exactly the
same doubles, in the same order, as N schedule-time draws — and because
everything data-dependent happens on the resolution stream in the same
(schedule) order, and on the telemetry stream in the same (departure)
order, in both loops.  Parking moves no computation across an event: what
the oracle's ``_schedule_attempt`` computes reads only state as of the
arrival, and what its departure handler does for a clean attempt reads only
state as of the departure pop.  Everything else (arbiter math, float
accumulation order, record layout) runs the same expressions in the same
event order.  ``tests/netsim/test_engine_parity.py`` pins all of this
against the oracle across the full fault x dynamics x policy grid, and
``tests/netsim/test_parked_parity.py`` over drawn run configurations.

**Memoized arrivals.**  The run memoizes the manager's answer, with the
configuration's constants (code name, channel power, coded bits per
packet, design-BER disturb probability) resolved once, per
``(target BER, margin)`` —
:meth:`~repro.manager.manager.OpticalLinkManager.configure` is
deterministic given those plus the engine-constant policy, so replaying
the cached configuration is result-identical.  A
:class:`~repro.manager.policies.SelectionPolicy` never sees the payload, so
variable-payload (bursty) traffic costs one ``configure`` per key; the
payload's own fields (packets, coded bits, nominal duration and energy) are
memoized per payload on top.  Under a degradation ladder the key adds the
channel's health: the fault model's healths are interned to small integers
per run (:meth:`~repro.netsim.failures.HardFaultModel.health_index_lookups`),
the ladder's :meth:`~repro.manager.policies.DegradationLadder.action_for`
is a pure function of the health, and ``configure`` is deterministic given
the margin the action derives — so the whole answer (configuration, or the
channel declared down, or :class:`~repro.exceptions.InfeasibleDesignError`)
is replayed, and the ladder counters ``configure_degraded`` publishes are
republished on every hit.  Requests that fail cheap validity checks
(source == destination, payload <= 0, an ONI out of range) take the real
manager path, so error behaviour stays identical too.  Faults, downtime
and failed or dropped transfers go through the run's cold handlers
(:meth:`_Run.handle_link_fault`, :meth:`_Run.finalize_transfer`, ...),
which the oracle's loop calls too.  Per-attempt drift and health queries
go through per-channel lookups bound once per run
(:meth:`~repro.netsim.dynamics.ChannelDriftModel.multiplier_lookup`, the
health index lookups), the same closures the models' own queries answer
from.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, repeat
from operator import itemgetter
from time import perf_counter
from typing import Iterable

import numpy as np

from ..exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from ..manager.manager import CommunicationRequest
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..traffic.generators import TrafficColumns, TrafficRequest
from .engine import MAX_PAYLOAD_BITS, NetTransferRecord, NetworkResult, _TransferState
from .events import EventKind
from .outcomes import TransmissionOutcome, packets_for_payload

__all__ = ["TOKEN_HOP_TIME_S"]

#: Time the arbitration token takes to pass from one writer of an MWSR
#: channel to the next (s).  A channel's writers are every ONI but its
#: reader, in index order; the token travels round-robin from its holder to
#: the requesting writer, and the transfer starts once the channel is free.
TOKEN_HOP_TIME_S = 1e-9

#: Link-constants sentinel of a decision: the target is infeasible.
_REJECTED = object()

#: The payload bits of an arrival event (see :func:`_arrival_events`).
_PAYLOAD_BITS = itemgetter(5)


class _Run:
    """One run of a :class:`~repro.netsim.engine.NetworkSimulator`.

    It holds everything the run changes: the records, the fault accounting,
    the departure heap and its sequence counter, the flush queue, the memos
    and the inline channel states, plus the drift and health lookups bound
    for the run.  :meth:`drain` is the event loop.  The cold handlers
    (fault transitions, blackout deferrals, zero-attempt and finished
    records, result assembly) are shared with the test oracle, which runs
    them from its own per-event heap loop and routes :meth:`push` to its own
    queue.
    """

    __slots__ = (
        "sim",
        "records",
        "heap",
        "sequence",
        "pending",
        "flagged",
        "decisions",
        "transfers",
        "gates",
        "raws",
        "channels",
        "epoch_flushes",
        "down_since",
        "downtime_s",
        "fault_transitions",
        "recoveries",
        "recovery_time_s",
        "drift_at",
        "healths",
        "health_index_at",
        "services",
        "tracer",
        "registry",
    )

    def __init__(self, sim) -> None:
        self.sim = sim
        controller = sim._controller
        if controller is not None:
            controller.reset()
        self.records: list[NetTransferRecord] = []
        #: Run-time events as ``(time, sequence, kind, payload[, telemetry])``
        #: tuples; ``sequence`` numbers every event in push order, static
        #: events first.
        self.heap: list[tuple] = []
        self.sequence = 0
        #: Flush queue of undrawn gates, in schedule order.  A stateful attempt
        #: queues ``(seq, gate probability, sampler, packets, raw BER, state)``,
        #: a parked one ``(seq, gate probability, sampler, packets, raw BER,
        #: record, arrival event, link constants, design raw BER)``; ``seq``
        #: is its departure's sequence number.
        self.pending: list[tuple] = []
        #: seq -> the stateful transfer of a parked first attempt the flush
        #: flagged, taken when its departure pops.
        self.flagged: dict[int, _TransferState] = {}
        #: (target BER, margin[, health index]) -> (link constants, sampler,
        #: design raw BER, ladder action): the manager's answer.  The link
        #: constants are ``None`` when the ladder declares the channel down and
        #: ``_REJECTED`` when the target is infeasible.
        self.decisions: dict[tuple, tuple] = {}
        #: (target BER, margin[, health index], payload bits) -> a served
        #: decision plus the payload's fields: (link constants, sampler, design
        #: raw BER, packets, coded bits, nominal duration, nominal energy,
        #: ladder action, gate probability, telemetry) — the gate (see
        #: ``gates``) only when the raw BER is fixed, else ``None, None``.
        self.transfers: dict[tuple, tuple] = {}
        #: (sampler, packets, raw BER) -> (gate probability, telemetry): the
        #: telemetry is ``(blocks, disturb probability, expected events)`` when
        #: the controller watches failures, else ``None``.
        self.gates: dict[tuple, tuple] = {}
        #: (design raw BER, start health index, request health index or -1) ->
        #: the attempt's raw BER on a channel that is up.
        self.raws: dict[tuple, float] = {}
        #: destination -> ``[token holder index, busy-until, busy seconds]``:
        #: the arbiter recurrence state of the reader's channel, built at the
        #: channel's first attempt (so the busy seconds get their keys in the
        #: oracle's order).  The writers of reader ``d`` are every other ONI in
        #: index order, so writer ``w`` has token index ``w`` below ``d`` and
        #: ``w - 1`` above it.
        self.channels: dict[int, list] = {}
        #: Number of epoch-wide vectorized gate draws.  Pure accounting —
        #: never consulted by the simulation.
        self.epoch_flushes = 0
        #: Hard-fault accounting: channels currently down (channel -> the time
        #: they went down) plus the run-wide downtime / transition / recovery
        #: counters.
        self.down_since: dict[int, float] = {}
        self.downtime_s = 0.0
        self.fault_transitions = 0
        self.recoveries = 0
        self.recovery_time_s = 0.0
        # Per-channel drift and health lookups, bound once for the run.  Fault
        # healths are interned: a lookup returns an index into ``healths``.
        dynamics = sim._dynamics
        self.drift_at = (
            [dynamics.multiplier_lookup(c) for c in range(dynamics.num_channels)]
            if dynamics is not None
            else None
        )
        self.healths = self.health_index_at = self.services = None
        failures = sim._failures
        if failures is not None:
            self.healths, self.health_index_at = failures.health_index_lookups()
            degradation = sim._degradation
            if degradation is not None:
                num_wavelengths = sim.config.num_wavelengths
                #: health index -> (action, wavelengths, rate factor) of the
                #: ladder at that health, or ``None`` when the channel is down or
                #: the ladder does not serve it (the stateful path defers or
                #: drops).  ``action_for`` is pure, so every health is resolved
                #: once up front.
                self.services = [
                    _service(degradation, health, num_wavelengths) for health in self.healths
                ]
        self.tracer = obs_tracing.ACTIVE
        self.registry = obs_metrics.ACTIVE

    # ------------------------------------------------------------------ the loop
    def drain(self, requests: TrafficColumns | Iterable[TrafficRequest]) -> NetworkResult:
        """Simulate ``requests`` to completion and assemble the result.

        Each request's fields ride in its arrival event (see
        :func:`_arrival_events`), read from a generator's columns or from
        request objects.  Only the hot
        arrival/departure path is laid out here; the cold paths (fault
        handling, degradation deferrals, finalisation of failed or dropped
        transfers) are the handler methods the oracle shares, so there is
        exactly one implementation of their semantics.
        """
        sim = self.sim
        failures = sim._failures
        # Faults before arrivals: lower sequence numbers at equal times,
        # matching the oracle's push order.
        static: list[tuple] = (
            [
                (float(t.time_s), sequence, EventKind.LINK_FAULT, t)
                for sequence, t in enumerate(failures.transitions())
            ]
            if failures is not None
            else []
        )
        num_faults = len(static)
        events, largest = _arrival_events(requests, num_faults)
        static += events
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
        if len(static) == num_faults:
            raise ConfigurationError("a simulation needs at least one request")
        if largest > MAX_PAYLOAD_BITS:
            raise ConfigurationError(
                f"a transfer carries at most {MAX_PAYLOAD_BITS} payload bits, got {largest}"
            )
        # Unique sequence numbers make the (time, sequence) prefix decisive,
        # so tuple comparison never reaches the kind/payload slots.  The
        # loop pops the next event off the end, which frees each one as it
        # is consumed, while the run's records grow.
        static.sort(reverse=True)
        self.sequence = len(static)

        # ------------------------------------------------------------- hot locals
        controller = sim._controller
        dynamics = sim._dynamics
        degradation = sim._degradation
        probabilistic = sim.mode == "probabilistic"
        packet_bits = sim.packet_bits
        backoff_s = sim.retry_backoff_s
        num_onis = sim.config.num_onis
        writers = num_onis - 1
        num_wavelengths = sim.config.num_wavelengths
        channel_rate = sim.channel_rate_bits_per_s
        if controller is not None:
            margin_for = controller.margin_for
            blocked_until = controller.blocked_until
            observe = controller.observe
        wants_obs = controller is not None and controller.wants_observations
        # ``margin_for`` reads the true drift multiplier only in oracle mode, so
        # no other mode queries the drift at arrival (drift processes are pure
        # in (channel, time): a skipped query moves no stream).  The query runs
        # before the suspect-request check, so it keeps the model's validating
        # ``multiplier``: a bad destination fails as in the oracle.
        arrival_drift = (
            dynamics if controller is not None and controller.mode == "oracle" else None
        )
        drift_at = self.drift_at
        healths = self.healths
        health_index_at = self.health_index_at
        services = self.services
        # Without drift or faults every attempt runs at its sampler's design raw
        # BER, so a transfer's gate is fixed by its payload entry.
        fixed_raw = probabilistic and dynamics is None and failures is None
        telemetry_binomial = sim._telemetry_rng.binomial
        records_append = self.records.append
        heap = self.heap
        push = self.push
        flush = self.flush
        decide = self.decide
        schedule_attempt = self.schedule_attempt
        new_state = self.new_state
        refuse = self.refuse
        transfers = self.transfers
        gates = self.gates
        raws = self.raws
        channels = self.channels
        pending = self.pending
        pending_append = pending.append
        flagged = self.flagged
        registry = self.registry
        Record = NetTransferRecord
        # NamedTuple construction normally routes through a generated Python
        # __new__; building the tuple directly halves the cost of a parked
        # record, the one per-transfer allocation a clean transfer has.
        tuple_new = tuple.__new__
        ARRIVAL = EventKind.ARRIVAL
        DEPARTURE = EventKind.DEPARTURE
        RETRY = EventKind.RETRY

        # Per-arrival values that stay at these defaults unless the run's
        # controller, ladder, drift or faults set them: the margin, the health
        # index of the arrival (read only under a ladder) and of the ladder's
        # service (-1 without one), and the first attempt's raw BER (None at a
        # fixed design point).
        margin = 1.0
        index = None
        served = -1
        raw = None
        events = 0
        event = None
        time_s = 0.0
        try:
            while True:
                # The merge, inline: heap events strictly earlier than the
                # next static event go first; at equal times the static event
                # wins, its sequence number being the smaller.
                if static:
                    upcoming = static[-1]
                    upcoming_s = upcoming[0]
                else:
                    upcoming = None
                while heap and (upcoming is None or heap[0][0] < upcoming_s):
                    event = heappop(heap)
                    events += 1
                    time_s = event[0]
                    state = event[3]
                    if type(state) is Record:
                        seq = event[1]
                        if pending and seq >= pending[0][0]:
                            # This departure's gate is still queued (as is every
                            # later-scheduled one): flush the epoch.
                            flush()
                        if not flagged or seq not in flagged:
                            # A clean parked attempt: ``state`` is its finished
                            # record.
                            if wants_obs:
                                telemetry = event[4]
                                blocks = telemetry[0]
                                observe(
                                    state[1],
                                    time_s,
                                    blocks=blocks,
                                    observed_events=float(
                                        telemetry_binomial(blocks, telemetry[1])
                                    ),
                                    expected_events=telemetry[2],
                                )
                            records_append(state)
                            continue
                        state = flagged.pop(seq)
                    elif event[2] is RETRY:
                        schedule_attempt(state, time_s, None)
                        continue
                    if state.attempt_blacked_out:
                        # Certain loss, no randomness, no telemetry — exactly
                        # the oracle's dark-channel branch.
                        state.attempt_blacked_out = False
                        remaining = state.packets_remaining
                        outcome = TransmissionOutcome(
                            packets=remaining,
                            failed_detected=remaining,
                            delivered_with_errors=0,
                            residual_bit_errors=0,
                        )
                    else:
                        if pending and event[1] >= pending[0][0]:
                            flush()
                        outcome = state.pending_outcome
                        state.pending_outcome = None
                        if outcome is None:
                            # Clean: the gate passed.  Stateful attempts are
                            # rare, so they take the oracle's path as is.
                            outcome = TransmissionOutcome(state.packets_remaining, 0, 0, 0)
                        if wants_obs:
                            self.feed_controller(time_s, state, outcome)
                    state.packets_delivered += outcome.packets - outcome.failed_detected
                    state.packets_with_residual_errors += outcome.delivered_with_errors
                    state.residual_bit_errors += outcome.residual_bit_errors
                    failed = outcome.failed_detected
                    if failed and state.retries_left > 0:
                        state.packets_remaining = failed
                        not_before = time_s
                        if backoff_s > 0.0:
                            not_before = time_s + self.retry_delay_s(state)
                        if state.deadline_s is None or not_before <= state.deadline_s:
                            state.retries_left -= 1
                            schedule_attempt(state, time_s, not_before)
                            continue
                    self.finalize_transfer(state, time_s, dropped=failed)
                if upcoming is None:
                    break
                static.pop()
                events += 1
                event = upcoming
                time_s = upcoming_s
                if num_faults and event[2] is not ARRIVAL:
                    self.handle_link_fault(time_s, event[3])
                    continue
                _, _, _, source, destination, payload_bits, target_ber, arrival_s = event
                if controller is not None:
                    margin = margin_for(
                        destination,
                        time_s,
                        true_multiplier=(
                            arrival_drift.multiplier(destination, time_s)
                            if arrival_drift is not None
                            else 1.0
                        ),
                    )
                suspect = (
                    source == destination
                    or payload_bits <= 0
                    or source < 0
                    or source >= num_onis
                    or destination < 0
                    or destination >= num_onis
                )
                if suspect:
                    entry = None
                elif degradation is None:
                    key = (target_ber, margin, payload_bits)
                    entry = transfers.get(key)
                else:
                    index = health_index_at[destination](time_s)
                    key = (target_ber, margin, index, payload_bits)
                    entry = transfers.get(key)
                    if entry is not None and registry is not None:
                        _republish(registry, entry[7])
                if entry is None:
                    link, sampler, design_raw, action = decide(
                        event, time_s, margin, index, suspect
                    )
                    if link is None:
                        refuse(source, destination, payload_bits, time_s, rejected=False)
                        continue
                    if link is _REJECTED:
                        refuse(source, destination, payload_bits, time_s, rejected=True)
                        continue
                    packets = packets_for_payload(payload_bits, packet_bits)
                    coded_bits = packets * link.coded_bits_per_packet
                    duration_s = coded_bits / channel_rate
                    entry = (
                        link,
                        sampler,
                        design_raw,
                        packets,
                        coded_bits,
                        duration_s,
                        link.channel_power_w * num_wavelengths * duration_s,
                        action,
                        *(
                            _gate(sampler, packets, None, link, wants_obs)
                            if fixed_raw
                            else (None, None)
                        ),
                    )
                    if not suspect:
                        transfers[key] = entry
                (
                    link,
                    sampler,
                    design_raw,
                    packets,
                    coded_bits,
                    duration_s,
                    energy_j,
                    action,
                    fail_p,
                    telemetry,
                ) = entry
                if not probabilistic:
                    schedule_attempt(
                        new_state(event, sampler, link, packets, design_raw), time_s, None
                    )
                    continue
                # The first attempt, inline: _schedule_attempt's expressions.
                request_time_s = time_s
                if controller is not None:
                    blocked = blocked_until(destination)
                    if blocked > request_time_s:
                        request_time_s = blocked
                if degradation is not None:
                    served = health_index_at[destination](request_time_s)
                    service = services[served]
                    if service is None:
                        # Down, or not served: defer or drop, statefully.
                        schedule_attempt(
                            new_state(event, sampler, link, packets, design_raw), time_s, None
                        )
                        continue
                    action, wavelengths, rate_factor = service
                    if rate_factor != 1.0:
                        duration_s *= rate_factor
                    energy_j = link.channel_power_w * wavelengths * duration_s
                # The oracle's TokenArbiter.request recurrence, inline.
                channel = channels.get(destination)
                if channel is None:
                    channel = channels[destination] = [0, 0.0, 0.0]
                target = source if source < destination else source - 1
                busy = channel[1]
                hops = (target - channel[0]) % writers
                base = request_time_s if request_time_s > busy else busy
                start_s = base + hops * TOKEN_HOP_TIME_S
                departure_s = start_s + duration_s
                channel[0] = target
                channel[1] = departure_s
                channel[2] += duration_s
                if fail_p is None:
                    # Drift or faults move the raw BER: the gate is looked up.
                    if drift_at is not None:
                        raw = min(1.0, design_raw * drift_at[destination](start_s))
                    else:
                        started = health_index_at[destination](start_s)
                        raw_key = (design_raw, started, served)
                        raw = raws.get(raw_key)
                        if raw is None:
                            health = healths[started]
                            if health.down:
                                # Serialised into a dark channel: a certain
                                # loss, handled statefully.
                                state = self.first_attempt_state(
                                    event,
                                    sampler,
                                    link,
                                    packets,
                                    design_raw,
                                    start_s,
                                    coded_bits,
                                    energy_j,
                                )
                                state.attempt_blacked_out = True
                                push(departure_s, DEPARTURE, state)
                                continue
                            raw = raws[raw_key] = self.attempt_raw_ber(
                                design_raw, health, action
                            )
                    gate_key = (sampler, packets, raw)
                    gate = gates.get(gate_key)
                    if gate is None:
                        gate = gates[gate_key] = _gate(sampler, packets, raw, link, wants_obs)
                    fail_p, telemetry = gate
                # Park the finished record and queue its gate; a flush that
                # flags the gate swaps in the stateful transfer.
                seq = self.sequence
                self.sequence = seq + 1
                record = tuple_new(
                    Record,
                    (
                        source,
                        destination,
                        payload_bits,
                        link.code_name,
                        arrival_s,
                        start_s,
                        departure_s,
                        1,
                        packets,
                        packets,
                        packets,
                        0,
                        0,
                        0,
                        coded_bits,
                        energy_j,
                        False,
                    ),
                )
                pending_append(
                    (seq, fail_p, sampler, packets, raw, record, event, link, design_raw)
                )
                heappush(heap, (departure_s, seq, DEPARTURE, record, telemetry))
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"{event[2].name} handler failed at t={event[0]:.9e}s "
                f"(event #{events}): {exc}"
            ) from exc
        return self.finish(
            time_s,
            events,
            {destination: channel[2] for destination, channel in channels.items()},
        )

    def push(self, time_s: float, kind: EventKind, payload) -> None:
        """Schedule a run-time event (sequenced after every event before it)."""
        time_s = float(time_s)
        if not time_s >= 0.0:
            raise ConfigurationError(f"event time must be non-negative, got {time_s!r}")
        heappush(self.heap, (time_s, self.sequence, kind, payload))
        self.sequence += 1

    def flush(self) -> None:
        """Resolve every queued gate in one epoch-wide primary draw.

        Only the flagged attempts change: a gated state whose
        ``pending_outcome`` stays ``None`` came back clean, so the
        departure path skips the TransmissionOutcome allocation entirely.
        """
        tracer = self.tracer
        begin = perf_counter() if tracer is not None else 0.0
        pending = self.pending
        flagged = self.flagged
        resolve_rng = self.sim._resolve_rng
        attempts = len(pending)
        uniforms = self.sim._rng.random(attempts)
        for uniform, item in zip(uniforms.tolist(), pending):
            if uniform < item[1]:
                outcome = item[2].resolve_failed_attempt(
                    item[3], raw_ber=item[4], resolve_rng=resolve_rng
                )
                payload = item[5]
                if type(payload) is NetTransferRecord:
                    # A flagged parked attempt: materialise the stateful
                    # transfer its record stood in for.
                    payload = flagged[item[0]] = self.first_attempt_state(
                        item[6],
                        item[2],
                        item[7],
                        item[3],
                        item[8],
                        payload[5],
                        payload[14],
                        payload[15],
                    )
                    payload.attempt_raw_ber = item[4]
                payload.pending_outcome = outcome
        pending.clear()
        self.epoch_flushes += 1
        if tracer is not None:
            tracer.emit(
                "netsim.epoch_flush",
                perf_counter() - begin,
                {"attempts": attempts},
                start=begin,
            )

    def new_state(self, arrival, sampler, link, packets: int, design_raw: float) -> _TransferState:
        """The stateful bookkeeping of one transfer, registered in flight.

        ``arrival`` is the request's arrival event (see :func:`_arrival_events`).
        """
        sim = self.sim
        _, _, _, source, destination, payload_bits, _, arrival_time_s = arrival
        state = _TransferState(
            source=source,
            destination=destination,
            payload_bits=payload_bits,
            arrival_time_s=arrival_time_s,
            sampler=sampler,
            link=link,
            packets_total=packets,
            packets_remaining=packets,
            retries_left=sim.max_retries if sim.crc is not None else 0,
        )
        state.design_raw_ber = design_raw
        if sim.transfer_timeout_s is not None:
            # The arrival event's time, as the static schedule holds it.
            state.deadline_s = float(arrival_time_s) + sim.transfer_timeout_s
        return state

    def first_attempt_state(
        self, arrival, sampler, link, packets, design_raw, start_s, coded_bits, energy_j
    ) -> _TransferState:
        """The stateful transfer of a first attempt scheduled at arrival."""
        state = self.new_state(arrival, sampler, link, packets, design_raw)
        state.first_start_s = start_s
        state.attempts = 1
        state.packets_sent = packets
        state.coded_bits_sent = coded_bits
        state.energy_j = energy_j
        return state

    def decide(self, arrival, time_s: float, margin: float, index, suspect: bool) -> tuple:
        """The manager's answer for the request of one arrival event (see ``decisions``).

        Replayed from the memo unless the request is suspect, which always
        asks the manager so validation errors surface exactly as in the
        oracle.
        """
        sim = self.sim
        degradation = sim._degradation
        _, _, _, source, destination, payload_bits, target_ber, _ = arrival
        key = (target_ber, margin) if degradation is None else (target_ber, margin, index)
        if not suspect:
            decision = self.decisions.get(key)
            if decision is not None:
                if degradation is not None and self.registry is not None:
                    _republish(self.registry, decision[3])
                return decision
        communication = CommunicationRequest(
            source=source,
            destination=destination,
            target_ber=target_ber,
            payload_bits=payload_bits,
            policy=sim.policy,
        )
        link = sampler = action = None
        design_raw = 0.0
        try:
            if degradation is None:
                configuration = sim.manager.configure(communication, margin_multiplier=margin)
            else:
                health = (
                    sim._failures.health(destination, time_s)
                    if suspect
                    else self.healths[index]
                )
                configuration, action = sim.manager.configure_degraded(
                    communication, health, degradation, base_margin_multiplier=margin
                )
        except InfeasibleDesignError:
            link = _REJECTED
            if degradation is not None:
                action = degradation.action_for(health)
        else:
            if configuration is not None:
                sampler = sim._sampler_for(configuration)
                link = sim._link_constants(configuration, sampler)
                if sim._dynamics is not None or sim._failures is not None:
                    design_raw = sim._raw_ber_for(configuration)
        decision = (link, sampler, design_raw, action)
        if not suspect:
            self.decisions[key] = decision
        return decision

    def schedule_attempt(self, state, now_s: float, not_before_s: float | None) -> None:
        """Mirror of the oracle's ``_schedule_attempt`` with queued sampling."""
        sim = self.sim
        controller = sim._controller
        destination = state.destination
        request_time_s = now_s
        if not_before_s is not None and not_before_s > request_time_s:
            request_time_s = not_before_s
        if controller is not None:
            blocked = controller.blocked_until(destination)
            if blocked > request_time_s:
                request_time_s = blocked
        wavelengths = sim.config.num_wavelengths
        rate_factor = 1.0
        action = None
        if sim._degradation is not None:
            index = self.health_index_at[destination](request_time_s)
            service = self.services[index]
            if service is None:
                health = self.healths[index]
                if health.down:
                    self.defer_or_drop(state, now_s, health)
                else:
                    self.finalize_transfer(state, now_s, dropped=state.packets_remaining)
                return
            action, wavelengths, rate_factor = service
        sampler = state.sampler
        link = state.link
        remaining = state.packets_remaining
        coded_bits_pp = link.coded_bits_per_packet
        duration_s = remaining * coded_bits_pp / sim.channel_rate_bits_per_s
        if rate_factor != 1.0:
            duration_s *= rate_factor
        # The oracle's TokenArbiter.request recurrence, inline.
        channel = self.channels.get(destination)
        if channel is None:
            channel = self.channels[destination] = [0, 0.0, 0.0]
        source = state.source
        target = source if source < destination else source - 1
        busy = channel[1]
        hops = (target - channel[0]) % (sim.config.num_onis - 1)
        base = request_time_s if request_time_s > busy else busy
        start_s = base + hops * TOKEN_HOP_TIME_S
        channel[0] = target
        channel[1] = start_s + duration_s
        if state.first_start_s < 0.0:
            state.first_start_s = start_s
        state.attempts += 1
        state.packets_sent += remaining
        state.coded_bits_sent += remaining * coded_bits_pp
        state.energy_j += link.channel_power_w * wavelengths * duration_s
        if self.drift_at is not None:
            multiplier = self.drift_at[destination](start_s)
            state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
        elif self.healths is not None:
            self.apply_attempt_health(
                state, self.healths[self.health_index_at[destination](start_s)], action
            )
        if not state.attempt_blacked_out:
            if sim.mode == "probabilistic":
                # Gated: the outcome stays None unless the flush flags it.
                state.pending_outcome = None
                raw = state.attempt_raw_ber
                self.pending.append(
                    (
                        self.sequence,
                        sampler.attempt_failure_probability(remaining, raw),
                        sampler,
                        remaining,
                        raw,
                        state,
                    )
                )
            else:
                state.pending_outcome = sampler.sample(remaining)
        channel[2] += duration_s
        self.push(start_s + duration_s, EventKind.DEPARTURE, state)

    # ------------------------------------------------------------ cold handlers
    def handle_link_fault(self, now_s: float, transition) -> None:
        """Apply one health transition: availability accounting + escalation."""
        sim = self.sim
        self.fault_transitions += 1
        channel = transition.channel
        health = sim._failures.health(channel, now_s)
        was_down = channel in self.down_since
        if health.down and not was_down:
            self.down_since[channel] = now_s
        elif not health.down and was_down:
            started = self.down_since.pop(channel)
            duration = now_s - started
            self.downtime_s += duration
            self.recoveries += 1
            self.recovery_time_s += duration
        controller = sim._controller
        if (
            controller is not None
            and sim._degradation is not None
            and health.ber_penalty_multiplier > 1.0
        ):
            # A ladder deployment implies a fault-management plane that
            # announces detected penalties; jump the controller straight to
            # the covering level instead of waiting for telemetry.
            controller.force_margin(channel, health.ber_penalty_multiplier, now_s)

    def refuse(
        self, source: int, destination: int, payload_bits: int, now_s: float, *, rejected: bool
    ) -> None:
        """Record a request that gets no attempt.

        ``rejected`` when no configuration meets its target: it counts no
        packets.  Otherwise the ladder declared its channel down at arrival,
        and every one of its packets counts as dropped.
        """
        packets = 0 if rejected else packets_for_payload(payload_bits, self.sim.packet_bits)
        self.records.append(
            NetTransferRecord(
                source=source,
                destination=destination,
                payload_bits=payload_bits,
                code_name=None,
                arrival_time_s=now_s,
                first_start_time_s=now_s,
                completion_time_s=now_s,
                attempts=0,
                packets_total=packets,
                packets_sent=0,
                packets_delivered=0,
                packets_dropped=packets,
                packets_with_residual_errors=0,
                residual_bit_errors=0,
                coded_bits_sent=0,
                energy_j=0.0,
                rejected=rejected,
            )
        )

    def apply_attempt_health(self, state, health, action) -> None:
        """Set the attempt's raw BER (or dark-channel flag) from its health.

        ``health`` is the destination channel's health at the attempt's
        serialisation start: like dynamics, the attempt is corrupted at the
        conditions of its serialisation *start* — a blackout beginning
        between the channel request and the grant still eats the attempt.
        """
        if health.down:
            state.attempt_blacked_out = True
            state.attempt_raw_ber = None
            return
        state.attempt_blacked_out = False
        state.attempt_raw_ber = self.attempt_raw_ber(state.design_raw_ber, health, action)

    def attempt_raw_ber(self, design_raw_ber: float, health, action) -> float:
        """Raw BER of an attempt started on a channel that is up.

        Without a ladder, lost wavelengths are still driven (the transmitter
        does not know): their share of the coded bits arrives as coin flips,
        so the effective raw BER blends the survivors' penalised BER with
        0.5.  With a ladder, ``action`` already remapped (no dead-wavelength
        bits) and its derate divides the penalty (a halved rate buys a 2x
        raw-BER allowance from the energy-per-bit gain).
        """
        penalty = health.ber_penalty_multiplier
        if action is not None:
            raw = design_raw_ber * (penalty / action.derate_factor)
        else:
            raw = design_raw_ber * penalty
            num_wavelengths = self.sim.config.num_wavelengths
            lost = num_wavelengths - health.wavelengths_available
            if lost > 0:
                fraction = lost / num_wavelengths
                raw = fraction * 0.5 + (1.0 - fraction) * raw
        return min(1.0, raw)

    def retry_delay_s(self, state) -> float:
        """Exponential backoff: doubles with every re-attempt already consumed."""
        previous = max(state.attempts - 1, 0) + state.deferrals
        return self.sim.retry_backoff_s * (2.0 ** previous)

    def defer_or_drop(self, state, now_s: float, health) -> None:
        """A down channel under the ladder: wait out a blackout or give up."""
        if health.failed or not health.blacked_out:
            # Permanent outage (hard fail or all wavelengths gone): waiting
            # cannot help, drop what remains immediately.
            self.finalize_transfer(state, now_s, dropped=state.packets_remaining)
            return
        retry_at = now_s + self.retry_delay_s(state)
        if state.retries_left <= 0 or (
            state.deadline_s is not None and retry_at > state.deadline_s
        ):
            self.finalize_transfer(state, now_s, dropped=state.packets_remaining)
            return
        state.retries_left -= 1
        state.deferrals += 1
        self.push(retry_at, EventKind.RETRY, state)

    def finalize_transfer(self, state, now_s: float, *, dropped: int) -> None:
        """Record a transfer's terminal state (delivered, exhausted or dropped).

        ``dropped`` is the number of packets that never made it: the last
        attempt's detected failures when ARQ gave up, or everything still
        pending when a fault dropped the transfer outright.  A transfer
        dropped before any attempt started reports its drop time as its
        first start.
        """
        first_start = state.first_start_s if state.first_start_s >= 0.0 else now_s
        self.records.append(
            NetTransferRecord(
                source=state.source,
                destination=state.destination,
                payload_bits=state.payload_bits,
                code_name=state.link.code_name,
                arrival_time_s=state.arrival_time_s,
                first_start_time_s=first_start,
                completion_time_s=now_s,
                attempts=state.attempts,
                packets_total=state.packets_total,
                packets_sent=state.packets_sent,
                packets_delivered=state.packets_delivered,
                packets_dropped=dropped,
                packets_with_residual_errors=state.packets_with_residual_errors,
                residual_bit_errors=state.residual_bit_errors,
                coded_bits_sent=state.coded_bits_sent,
                energy_j=state.energy_j,
            )
        )

    def feed_controller(self, now_s: float, state, outcome) -> None:
        """Sample the attempt's failure telemetry and feed the monitor.

        The receiver-visible telemetry is the number of ECC blocks the
        decoder had to correct plus the CRC-detected packet failures.
        Correction events are sampled from the *telemetry* stream — never
        the engine's main generator — so enabling the monitor does not
        perturb packet outcomes.  (The CRC failures are drawn independently
        of the correction draw; the double count is negligible at operating
        points where corrections dominate failures by orders of magnitude.)
        """
        sampler = state.sampler
        blocks = outcome.packets * sampler.blocks_per_packet
        disturb = sampler.block_disturb_probability(state.attempt_raw_ber)
        observed = float(self.sim._telemetry_rng.binomial(blocks, disturb))
        expected = blocks * state.link.design_disturb_probability
        self.sim._controller.observe(
            state.destination,
            now_s,
            blocks=blocks,
            observed_events=observed + outcome.failed_detected,
            expected_events=expected,
        )

    def finish(self, end_s: float, events: int, busy_s: dict[int, float]) -> NetworkResult:
        """Settle end-of-run fault accounting and assemble the result.

        ``end_s`` is the time of the last processed event, ``events`` the
        number processed and ``busy_s`` each channel's serialisation
        seconds, keyed in first-attempt order.  Everything here is a pure
        function of the drained run, so byte-identical runs (which the
        parity suite pins against the test oracle) yield byte-identical
        results.
        """
        sim = self.sim
        controller = sim._controller
        # Channels still down when the run ends: their outage is charged up
        # to the last processed event, but does not count as a recovery
        # (they never came back).
        downtime_s = self.downtime_s
        for channel in sorted(self.down_since):
            started = self.down_since[channel]
            if end_s > started:
                downtime_s += end_s - started
        result = NetworkResult(
            records=self.records,
            busy_s_by_reader=busy_s,
            num_channels=sim.config.num_onis,
            warmup_fraction=sim.warmup_fraction,
            events_processed=events,
            configuration_switches=controller.switch_count if controller is not None else 0,
            reconfiguration_energy_j=(
                controller.reconfiguration_energy_j if controller is not None else 0.0
            ),
            channel_downtime_s=downtime_s,
            fault_transitions=self.fault_transitions,
            recoveries=self.recoveries,
            recovery_time_s=self.recovery_time_s,
            fault_horizon_s=end_s if sim._failures is not None else 0.0,
        )
        if self.registry is not None:
            _publish_run_metrics(self.registry, result, self.epoch_flushes)
        return result


def _arrival_events(
    requests: TrafficColumns | Iterable[TrafficRequest], first_sequence: int
) -> tuple[Iterable[tuple], int]:
    """The arrival events of a run's requests, and their largest payload.

    An arrival event is ``(float(arrival time), sequence, ARRIVAL, source,
    destination, payload bits, target BER, arrival time)``, numbered from
    ``first_sequence`` in request order: the arrival path reads the request
    from the tuple it pops, and no per-request object or column outlives
    the event.  Columns are zipped at C speed; request objects are read by
    a comprehension, whose specialised slot loads cost less than one
    ``attrgetter`` pass per field.
    """
    if type(requests) is not TrafficColumns:
        events = [
            (
                float(request.arrival_time_s),
                sequence,
                EventKind.ARRIVAL,
                request.source,
                request.destination,
                request.payload_bits,
                request.target_ber,
                request.arrival_time_s,
            )
            for sequence, request in enumerate(requests, first_sequence)
        ]
        return events, max(map(_PAYLOAD_BITS, events), default=0)
    arrivals, sources, destinations, payloads, target_ber, _ = requests
    if type(payloads) is list:
        largest = max(payloads, default=0)
    else:
        largest = payloads
        payloads = [payloads] * len(arrivals)
    if not len(sources) == len(destinations) == len(payloads) == len(arrivals):
        raise ConfigurationError("traffic columns must have one entry per request")
    events = zip(
        map(float, arrivals),
        count(first_sequence),
        repeat(EventKind.ARRIVAL),
        sources,
        destinations,
        payloads,
        repeat(target_ber),
        arrivals,
    )
    return events, largest


def _gate(sampler, packets: int, raw, link, wants_obs: bool) -> tuple:
    """An attempt's gate probability and telemetry (see ``_Run.gates``)."""
    fail_p = sampler.attempt_failure_probability(packets, raw)
    if not wants_obs:
        return fail_p, None
    blocks = packets * sampler.blocks_per_packet
    return fail_p, (
        blocks,
        sampler.block_disturb_probability(raw),
        blocks * link.design_disturb_probability,
    )


def _service(ladder, health, num_wavelengths: int):
    """``(action, wavelengths, rate factor)`` of the ladder at one health.

    ``None`` when the channel is down or the ladder does not serve it.  The
    rate factor is the oracle's expression: remapped and derated attempts
    serialise slower.
    """
    if health.down:
        return None
    action = ladder.action_for(health)
    if not action.serve:
        return None
    wavelengths = action.wavelengths
    return action, wavelengths, (num_wavelengths / wavelengths) * action.derate_factor


def _republish(registry, action) -> None:
    """The counters ``configure_degraded`` publishes, for a replayed answer."""
    registry.inc("manager.configure_degraded.calls")
    registry.inc(f"manager.degradation.rung.{action.rung}")


def _publish_run_metrics(registry, result: NetworkResult, epoch_flushes: int) -> None:
    """Publish a finished run's telemetry into the active registry.

    Everything is derived from aggregates the run maintains anyway
    (records, event counts, fault accounting), so metrics collection adds
    nothing to the per-event hot path and — crucially — reads no random
    generator: a run with metrics on is byte-identical to one with metrics
    off.  Scalars the run already tracks are published eagerly; sums that
    must scan the (immutable, possibly huge) record table are deferred to
    snapshot time via :meth:`MetricsRegistry.defer`, keeping the
    instrumented ``run()`` within a few percent of the uninstrumented one.
    """
    records = result.records
    arrivals = len(records)
    faults = result.fault_transitions
    events = result.events_processed
    counter = registry.counter
    counter("netsim.events.total").inc(events)
    counter("netsim.events.arrival").inc(arrivals)
    counter("netsim.events.link_fault").inc(faults)
    counter("netsim.epoch.flushes").inc(epoch_flushes)
    counter("netsim.transfers.total").inc(arrivals)
    counter("netsim.controller.switches").inc(result.configuration_switches)
    counter("netsim.faults.transitions").inc(faults)
    counter("netsim.faults.recoveries").inc(result.recoveries)
    gauge = registry.gauge
    gauge("netsim.reconfiguration_energy_j").add(result.reconfiguration_energy_j)
    gauge("netsim.downtime_s").add(result.channel_downtime_s)
    gauge("netsim.recovery_time_s").add(result.recovery_time_s)
    registry.defer(lambda target: _publish_record_metrics(target, records, events, faults))


def _observe_array(histogram, values: np.ndarray) -> None:
    """Publish a vector of observations into ``histogram`` in one pass.

    ``numpy.searchsorted(side="left")`` reproduces the histogram's inclusive
    upper-edge rule (``bisect_left``) exactly, so the bucket counts match a
    per-value ``observe_many`` loop while costing two C passes.
    """
    if len(values) == 0:
        return
    indices = np.searchsorted(np.asarray(histogram.bounds), values, side="left")
    counts = np.bincount(indices, minlength=len(histogram.bounds) + 1)
    histogram.observe_counts(counts.tolist())


def _publish_record_metrics(
    registry, records: list[NetTransferRecord], events_processed: int, faults: int
) -> None:
    """Deferred metric publication: the per-record sums of a finished run.

    Runs at registry *snapshot* time, not inside the simulation — the run
    parks this via ``MetricsRegistry.defer`` so scanning thousands of
    records never taxes the timed hot path.  Event-kind counts are
    reconstructed instead of tallied per event: every arrival produces
    exactly one record, every scheduled attempt exactly one departure,
    every fault transition one LINK_FAULT, and the remainder of the total
    are backed-off RETRY events.
    """
    arrivals = len(records)
    if arrivals:
        # Transpose once and aggregate column-wise: ``zip(*records)`` and
        # ``sum()`` run at C speed, an order of magnitude cheaper than a
        # per-record Python loop over 10 fields.  The unpack order mirrors
        # the NetTransferRecord field order.
        (
            _sources,
            _destinations,
            _payloads,
            _codes,
            arrival_times,
            _first_starts,
            completion_times,
            attempts_col,
            _totals,
            sent_col,
            delivered_col,
            dropped_col,
            escape_col,
            residual_col,
            _coded_bits,
            energy_col,
            rejected_col,
        ) = zip(*records)
        departures = sum(attempts_col)
        rejected = sum(rejected_col)
        sent = sum(sent_col)
        delivered = sum(delivered_col)
        dropped = sum(dropped_col)
        escapes = sum(escape_col)
        residual_bits = sum(residual_col)
        energy_j = sum(energy_col)
        attempts_arr = np.asarray(attempts_col)
        attempt_counts = attempts_arr[attempts_arr != 0]
        retransmissions = departures - len(attempt_counts)
        completion = np.asarray(completion_times)
        arrival = np.asarray(arrival_times)
        if rejected:
            keep = ~np.asarray(rejected_col, dtype=bool)
            latencies = completion[keep] - arrival[keep]
        else:
            latencies = completion - arrival
    else:
        departures = retransmissions = rejected = 0
        sent = delivered = dropped = escapes = residual_bits = 0
        energy_j = 0.0
        latencies = np.empty(0)
        attempt_counts = np.empty(0, dtype=np.int64)
    counter = registry.counter
    counter("netsim.events.departure").inc(departures)
    counter("netsim.events.retry").inc(
        max(events_processed - arrivals - departures - faults, 0)
    )
    counter("netsim.transfers.completed").inc(arrivals - rejected)
    counter("netsim.transfers.rejected").inc(rejected)
    counter("netsim.packets.sent").inc(sent)
    counter("netsim.packets.delivered").inc(delivered)
    counter("netsim.packets.dropped").inc(dropped)
    counter("netsim.arq.retransmissions").inc(retransmissions)
    counter("netsim.crc.escapes").inc(escapes)
    counter("netsim.residual_bit_errors").inc(residual_bits)
    registry.gauge("netsim.energy_j").add(energy_j)
    _observe_array(registry.histogram("netsim.latency_s"), latencies)
    _observe_array(
        registry.histogram(
            "netsim.attempts_per_transfer", bounds=(1, 2, 3, 4, 5, 8, 16, 32)
        ),
        attempt_counts,
    )
