"""Per-event heap loop: the test oracle of the network simulator.

:meth:`repro.netsim.engine.NetworkSimulator.run` drains its events through
the epoch-batched core of :mod:`repro.netsim.epoch`: merge-ordered events,
flush-on-demand vectorized outcome draws and first attempts parked as
finished records.  This module is the straightforward implementation of
the same semantics — one :class:`Event` object per state change on a
plain ``heapq`` min-heap, one handler call per event — that the batched
core is checked against.  The parity suites (``test_engine_parity.py``,
``test_parked_parity.py``) run every workload through
:func:`run_reference` and through ``NetworkSimulator.run`` and assert the
two results equal, byte for byte.

The oracle drives an ordinary :class:`~repro.netsim.engine.NetworkSimulator`
through the private helpers the batched core shares with it (sampler and
arbiter lookup, fault and deferral handling, finalisation, result
assembly), exactly as ``epoch.run_batched(sim, requests)`` does; only the
arrival, attempt-scheduling and departure handlers live here.

Event lifecycle of one transfer::

    ARRIVAL(t)                 request reaches its source ONI
      └─ manager.configure()   policy selects code + laser power
      └─ arbiter.request()     token + channel reservation on the reader's
                               channel (FIFO in event order)
      └─ sample packet outcomes (probabilistic or bit-exact)
      └─ schedule DEPARTURE at start + serialization time
    DEPARTURE(t')              attempt finishes serialising
      └─ commit the attempt's sampled outcome
      ├─ CRC-detected failures left and retries remain
      │    └─ arbiter.request() again → schedule next DEPARTURE (ARQ)
      └─ otherwise finalise the record, release the manager entry

:class:`RoundTripOutcomeSampler` is the bit-exact sampler as it was before
it moved to the all-zero codeword: it draws random payloads, appends their
CRC, frames, encodes, corrupts, decodes and re-checks the CRC on the
received bits.  ``test_bitexact_round_trip.py`` pins
:class:`~repro.netsim.outcomes.BitExactOutcomeSampler` against it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from repro.coding.packed import pack_bits, unpack_bits
from repro.exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from repro.manager.manager import CommunicationRequest
from repro.netsim.engine import (
    NetTransferRecord,
    NetworkResult,
    NetworkSimulator,
    _RunState,
    _TransferState,
)
from repro.netsim.events import EventKind
from repro.netsim.outcomes import (
    BitExactOutcomeSampler,
    TransmissionOutcome,
    _mask_popcounts,
    _packed_mask_from_positions,
    packets_for_payload,
)
from repro.traffic.generators import TrafficRequest

__all__ = ["BACKENDS", "Event", "EventQueue", "RoundTripOutcomeSampler", "run_reference"]


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One scheduled state change, totally ordered by ``(time, sequence)``.

    The sequence number records insertion order, so simultaneous events
    pop in the order they were scheduled — never in payload-comparison or
    hash order.
    """

    time_s: float
    sequence: int
    kind: EventKind = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`Event` objects with deterministic tie-breaking."""

    __slots__ = ("_heap", "_sequence", "_processed")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0
        self._processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of events popped so far."""
        return self._processed

    def push(self, time_s: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the stored (sequenced) event."""
        if not time_s >= 0.0:
            raise ConfigurationError(f"event time must be non-negative, got {time_s!r}")
        event = Event(time_s=float(time_s), sequence=self._sequence, kind=kind, payload=payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        if not self._heap:
            raise ConfigurationError("cannot pop from an empty event queue")
        self._processed += 1
        return heapq.heappop(self._heap)

    def drain(self) -> Iterator[Event]:
        """Iterate events in simulation order until the queue runs dry."""
        while self._heap:
            yield self.pop()


def run_reference(sim, requests: Iterable[TrafficRequest]) -> NetworkResult:
    """Simulate ``requests`` on ``sim`` one heap event at a time."""
    run = _RunState(queue=EventQueue())
    if sim._controller is not None:
        sim._controller.reset()
    if sim._failures is not None:
        # One LINK_FAULT per compiled health transition; pushed before the
        # arrivals so a fault coinciding with an arrival is applied first
        # (matching the bisect semantics of health queries).
        for transition in sim._failures.transitions():
            run.queue.push(transition.time_s, EventKind.LINK_FAULT, transition)
    count = 0
    for request in requests:
        run.queue.push(request.arrival_time_s, EventKind.ARRIVAL, request)
        count += 1
    if count == 0:
        raise ConfigurationError("a simulation needs at least one request")

    # A crash deep inside a controller or sampler names the event that broke
    # the run (the failing event was popped and no further handler runs).
    event = None
    try:
        for event in run.queue.drain():
            kind = event.kind
            if kind is EventKind.ARRIVAL:
                _handle_arrival(sim, event.time_s, event.payload, run)
            elif kind is EventKind.DEPARTURE:
                _handle_departure(sim, event.time_s, event.payload, run)
            elif kind is EventKind.RETRY:
                _schedule_attempt(sim, event.payload, event.time_s, run)
            else:
                sim._handle_link_fault(event.time_s, event.payload, run)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{event.kind.name} handler failed at t={event.time_s:.9e}s "
            f"(event #{run.queue.events_processed}): {exc}"
        ) from exc
    run.end_s = event.time_s
    return sim._finish_run(run)


#: The two backends of every parity test, each called as
#: ``backend(simulator, requests)``: the oracle and the simulator's own run.
BACKENDS = {"reference": run_reference, "batched": NetworkSimulator.run}


def _handle_arrival(sim, now_s, request, run: _RunState) -> None:
    communication = CommunicationRequest(
        source=request.source,
        destination=request.destination,
        target_ber=request.target_ber,
        payload_bits=request.payload_bits,
        policy=sim.policy,
    )
    margin = 1.0
    if sim._controller is not None:
        multiplier = (
            sim._dynamics.multiplier(request.destination, now_s)
            if sim._dynamics is not None
            else 1.0
        )
        margin = sim._controller.margin_for(
            request.destination, now_s, true_multiplier=multiplier
        )
    try:
        if sim._degradation is not None:
            health = sim._failures.health(request.destination, now_s)
            configuration, action = sim.manager.configure_degraded(
                communication,
                health,
                sim._degradation,
                base_margin_multiplier=margin,
            )
            if configuration is None:
                # The ladder declared the channel down: drop the request
                # without spending a single attempt's energy on it.
                sim._drop_on_arrival(request, now_s, run)
                return
        else:
            configuration = sim.manager.configure(communication, margin_multiplier=margin)
    except InfeasibleDesignError:
        run.records.append(
            NetTransferRecord(
                source=request.source,
                destination=request.destination,
                payload_bits=request.payload_bits,
                code_name=None,
                arrival_time_s=now_s,
                first_start_time_s=now_s,
                completion_time_s=now_s,
                attempts=0,
                packets_total=0,
                packets_sent=0,
                packets_delivered=0,
                packets_dropped=0,
                packets_with_residual_errors=0,
                residual_bit_errors=0,
                coded_bits_sent=0,
                energy_j=0.0,
                rejected=True,
            )
        )
        return
    packets = packets_for_payload(request.payload_bits, sim.packet_bits)
    sampler = sim._sampler_for(configuration)
    state = _TransferState(
        request=request,
        sampler=sampler,
        link=sim._link_constants(configuration, sampler),
        packets_total=packets,
        packets_remaining=packets,
        retries_left=sim.max_retries if sim.crc is not None else 0,
    )
    if sim._dynamics is not None or sim._failures is not None:
        state.design_raw_ber = sim._raw_ber_for(configuration)
    if sim.transfer_timeout_s is not None:
        state.deadline_s = now_s + sim.transfer_timeout_s
    pair = (request.source, request.destination)
    run.active_pairs[pair] = run.active_pairs.get(pair, 0) + 1
    _schedule_attempt(sim, state, now_s, run)


def _schedule_attempt(
    sim, state, now_s, run: _RunState, *, not_before_s: float | None = None
) -> None:
    """Reserve the destination channel for one attempt and time its end.

    The arbiter grants in request order (the event loop guarantees requests
    are issued in simulation-time order), charges the token hops from the
    current holder and queues behind the channel's busy window; the
    attempt's DEPARTURE fires when serialisation completes.
    ``not_before_s`` is the ARQ backoff floor of a re-attempt.  Under a
    degradation ladder a down channel defers the attempt (blackout) or drops
    the transfer (permanent outage) instead of serialising into the dark.
    """
    destination = state.request.destination
    request_time_s = now_s
    if not_before_s is not None and not_before_s > request_time_s:
        request_time_s = not_before_s
    if sim._controller is not None:
        # A channel mid-reconfiguration (lasers re-locking, coder mode
        # switching) cannot accept the next transfer until it finishes.
        request_time_s = max(request_time_s, sim._controller.blocked_until(destination))
    wavelengths = sim.config.num_wavelengths
    rate_factor = 1.0
    action = None
    if sim._failures is not None and sim._degradation is not None:
        health = sim._failures.health(destination, request_time_s)
        if health.down:
            sim._defer_or_drop(state, now_s, health, run)
            return
        action = sim._degradation.action_for(health)
        if not action.serve:
            sim._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
            return
        wavelengths = action.wavelengths
        rate_factor = (sim.config.num_wavelengths / wavelengths) * action.derate_factor
    duration_s = (
        state.packets_remaining * state.link.coded_bits_per_packet / sim.channel_rate_bits_per_s
    )
    if rate_factor != 1.0:
        # Remapped / derated attempts serialise slower: the same coded bits
        # over fewer wavelengths and/or at a reduced rate.
        duration_s *= rate_factor
    arbiter = sim._arbiter_for(destination, run.arbiters)
    start_s = arbiter.request(state.request.source, request_time_s, duration_s)
    if state.first_start_s < 0.0:
        state.first_start_s = start_s
    state.attempts += 1
    state.packets_sent += state.packets_remaining
    state.coded_bits_sent += state.packets_remaining * state.link.coded_bits_per_packet
    channel_power_w = state.link.channel_power_w * wavelengths
    state.energy_j += channel_power_w * duration_s
    if sim._dynamics is not None:
        # The attempt is corrupted at the channel conditions of its
        # serialisation start.
        multiplier = sim._dynamics.multiplier(destination, start_s)
        state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
    elif sim._failures is not None:
        sim._apply_attempt_health(state, sim._failures.health(destination, start_s), action)
    if not state.attempt_blacked_out:
        # The attempt's outcome is drawn at *schedule* time: the primary
        # stream is consumed in attempt-schedule order (fixed size per
        # attempt), failing attempts resolve from the separate resolution
        # stream.  A blacked-out attempt consumes no randomness at all (its
        # loss is certain), keeping the streams aligned with a fault-free
        # run.  The outcome is committed when the DEPARTURE pops.
        if sim.mode == "probabilistic":
            state.pending_outcome = state.sampler.sample(
                state.packets_remaining,
                raw_ber=state.attempt_raw_ber,
                resolve_rng=sim._resolve_rng,
            )
        else:
            state.pending_outcome = state.sampler.sample(state.packets_remaining)
    run.busy_s[destination] = run.busy_s.get(destination, 0.0) + duration_s
    run.queue.push(start_s + duration_s, EventKind.DEPARTURE, state)


def _handle_departure(sim, now_s, state, run: _RunState) -> None:
    if state.attempt_blacked_out:
        # The channel was dark when serialisation started: every packet of
        # the attempt is lost, and loss of light is detected at the receiver
        # even without a CRC.  The outcome is certain, so no randomness is
        # consumed and the controller sees no telemetry.
        state.attempt_blacked_out = False
        outcome = TransmissionOutcome(
            packets=state.packets_remaining,
            failed_detected=state.packets_remaining,
            delivered_with_errors=0,
            residual_bit_errors=0,
        )
    else:
        outcome = state.pending_outcome
        state.pending_outcome = None
        if sim._controller is not None and sim._controller.wants_observations:
            sim._feed_controller(now_s, state, outcome)
    state.packets_delivered += outcome.delivered
    state.packets_with_residual_errors += outcome.delivered_with_errors
    state.residual_bit_errors += outcome.residual_bit_errors
    if outcome.failed_detected and state.retries_left > 0:
        state.packets_remaining = outcome.failed_detected
        not_before = now_s
        if sim.retry_backoff_s > 0.0:
            not_before = now_s + sim._retry_delay_s(state)
        if state.deadline_s is None or not_before <= state.deadline_s:
            state.retries_left -= 1
            _schedule_attempt(sim, state, now_s, run, not_before_s=not_before)
            return
        # The backed-off re-attempt would land past the transfer's deadline:
        # give up now instead of burning the channel on it.
    sim._finalize_transfer(state, now_s, run, dropped=outcome.failed_detected)


class RoundTripOutcomeSampler(BitExactOutcomeSampler):
    """Bit-exact outcomes from real payloads: the pre-zero-codeword sampler.

    Same constructor, error-mask draw and payload-column masks as
    :class:`~repro.netsim.outcomes.BitExactOutcomeSampler`; a corrupted
    attempt then draws ``integers(0, 2, (packets, packet_bits), uint8)``
    payloads, frames them with their CRC and zero padding, encodes, XORs in
    the mask, decodes, counts residual payload errors against the
    transmitted codewords and verifies the CRC of the received bits.
    """

    __slots__ = ()

    def sample(self, num_packets: int) -> TransmissionOutcome:
        n, k = int(self.code.n), int(self.code.k)
        blocks_per_packet = self.blocks_per_packet
        total_blocks = num_packets * blocks_per_packet
        if self._sparse_positions is not None:
            positions = self._sparse_positions(total_blocks * n)
            if positions.size == 0:
                return TransmissionOutcome(num_packets, 0, 0, 0)
            error_mask = _packed_mask_from_positions(positions, total_blocks, n)
        else:
            error_mask = self._mask_source(total_blocks, n=n)
            if not error_mask.any():
                return TransmissionOutcome(num_packets, 0, 0, 0)
        payload = self._rng.integers(0, 2, size=(num_packets, self.packet_bits), dtype=np.uint8)
        protected_bits = self.packet_bits + self.crc_width
        frame_bits = blocks_per_packet * k
        frame = np.zeros((num_packets, frame_bits), dtype=np.uint8)
        frame[:, : self.packet_bits] = payload
        if self.crc is not None:
            frame[:, self.packet_bits : protected_bits] = self.crc.checksum_batch_bits(payload)
        encoded = self.code.encode_batch_packed(pack_bits(frame.reshape(-1, k)))
        decoded = self.code.decode_batch_packed(encoded ^ error_mask)
        residual_frames = (decoded.corrected_words ^ encoded).reshape(
            num_packets, blocks_per_packet, -1
        )
        payload_errors = _mask_popcounts(residual_frames, self._payload_masks)
        if self.crc is not None:
            received = unpack_bits(decoded.corrected_words, n)[:, :k].reshape(
                num_packets, frame_bits
            )
            ok = self.crc.verify_batch(received[:, :protected_bits])
        else:
            ok = np.ones(num_packets, dtype=bool)
        return TransmissionOutcome(
            packets=num_packets,
            failed_detected=int(np.count_nonzero(~ok)),
            delivered_with_errors=int(np.count_nonzero(ok & (payload_errors > 0))),
            residual_bit_errors=int(payload_errors[ok].sum()),
        )
