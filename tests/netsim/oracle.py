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
through the cold handlers of the engine's run object,
:class:`repro.netsim.epoch._Run` (sampler lookup through the simulator,
fault and deferral handling, zero-attempt and finished records, result
assembly), exactly as ``NetworkSimulator.run`` does; only the event queue,
the arbiters and the arrival, attempt-scheduling and departure handlers
live here.  :class:`TokenArbiter` is the oracle's own copy of the
round-robin token recurrence that the batched loop inlines.

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

:func:`compute_metrics_reference` is the metrics reduction as it was
before it moved to NumPy columns: per-record getters mapped over the
records, a ``sorted`` by (arrival, completion), Python integer sums and a
left-to-right float sum.  ``test_metrics_parity.py`` pins
:func:`repro.netsim.metrics.compute_metrics` against it, bit for bit.

:class:`RoundTripOutcomeSampler` is the bit-exact sampler as it was before
it moved to the all-zero codeword: it draws random payloads, appends their
CRC, frames, encodes, corrupts, decodes and re-checks the CRC on the
received bits.  ``test_bitexact_round_trip.py`` pins
:class:`~repro.netsim.outcomes.BitExactOutcomeSampler` against it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import reduce
from itertools import filterfalse, repeat
from operator import add, itemgetter, sub
from typing import Any, Iterable, Iterator, List
from unittest import mock

import numpy as np

from repro.coding.packed import pack_bits, unpack_bits
from repro.exceptions import (
    ConfigurationError,
    InfeasibleDesignError,
    ReproError,
    SimulationError,
)
from repro.manager.manager import CommunicationRequest
from repro.manager.policies import ConfigurationDecision
from repro.netsim import engine as netsim_engine
from repro.netsim.engine import NetworkResult, NetworkSimulator, _TransferState
from repro.netsim.epoch import TOKEN_HOP_TIME_S, _Run
from repro.netsim.events import EventKind
from repro.netsim.metrics import LatencySummary, NetworkMetrics
from repro.netsim.outcomes import (
    BitExactOutcomeSampler,
    TransmissionOutcome,
    _mask_popcounts,
    _packed_mask_from_positions,
    packets_for_payload,
)
from repro.traffic.generators import TrafficColumns, TrafficRequest

__all__ = [
    "ArbitrationError",
    "BACKENDS",
    "Event",
    "EventQueue",
    "FixedCodePolicy",
    "RoundTripOutcomeSampler",
    "TokenArbiter",
    "compute_metrics_reference",
    "delivered_payload_bits",
    "network_simulator",
    "requests_from_columns",
    "run_reference",
]


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


class ArbitrationError(ReproError):
    """A writer asked for a channel it is not attached to."""


@dataclass
class TokenArbiter:
    """Round-robin token arbitration among the writers of an MWSR channel.

    Only one writer may modulate at a time.  The token travels round-robin
    from its current holder to the requesting writer (each hop costs
    :data:`~repro.netsim.epoch.TOKEN_HOP_TIME_S`); the transfer then starts
    once the channel is free.
    """

    writers: List[int]

    def __post_init__(self) -> None:
        if not self.writers:
            raise ConfigurationError("an arbiter needs at least one writer")
        if len(set(self.writers)) != len(self.writers):
            raise ConfigurationError("writer identifiers must be unique")
        self._holder_index = 0
        self._busy_until_s = 0.0

    def request(self, writer: int, now_s: float, duration_s: float) -> float:
        """Request the channel for a transfer; returns the grant (start) time."""
        if writer not in self.writers:
            raise ArbitrationError(f"writer {writer} is not attached to this channel")
        if duration_s < 0:
            raise ConfigurationError("transfer duration cannot be negative")
        target_index = self.writers.index(writer)
        hops = (target_index - self._holder_index) % len(self.writers)
        token_arrival = max(now_s, self._busy_until_s) + hops * TOKEN_HOP_TIME_S
        start = max(token_arrival, self._busy_until_s, now_s)
        self._holder_index = target_index
        self._busy_until_s = start + duration_s
        return start


class _ReferenceRun(_Run):
    """The engine's run object, with the oracle's queue, arbiters and busy time.

    The shared cold handlers push their RETRY events through :meth:`push`,
    which lands them in the oracle's :class:`EventQueue`.
    """

    __slots__ = ("queue", "arbiters", "busy_s")

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.queue = EventQueue()
        #: reader -> the arbiter of its channel, built at its first attempt.
        self.arbiters: dict[int, TokenArbiter] = {}
        #: reader -> serialisation seconds charged to its channel.
        self.busy_s: dict[int, float] = {}

    def push(self, time_s: float, kind: EventKind, payload) -> None:
        self.queue.push(time_s, kind, payload)


def requests_from_columns(columns: TrafficColumns) -> List[TrafficRequest]:
    """The request objects of a column draw, built through the checked constructor."""
    payloads = columns.payload_bits
    if isinstance(payloads, int):
        payloads = [payloads] * len(columns.arrival_times_s)
    return [
        TrafficRequest(
            arrival_time_s=arrival,
            source=source,
            destination=destination,
            payload_bits=payload,
            target_ber=columns.target_ber,
            deadline_s=columns.deadline_s,
        )
        for arrival, source, destination, payload in zip(
            columns.arrival_times_s, columns.sources, columns.destinations, payloads, strict=True
        )
    ]


def run_reference(sim, requests: TrafficColumns | Iterable[TrafficRequest]) -> NetworkResult:
    """Simulate ``requests`` on ``sim`` one heap event at a time."""
    if isinstance(requests, TrafficColumns):
        requests = requests_from_columns(requests)
    run = _ReferenceRun(sim)
    queue = run.queue
    if sim._failures is not None:
        # One LINK_FAULT per compiled health transition; pushed before the
        # arrivals so a fault coinciding with an arrival is applied first
        # (matching the bisect semantics of health queries).
        for transition in sim._failures.transitions():
            queue.push(transition.time_s, EventKind.LINK_FAULT, transition)
    count = 0
    for request in requests:
        queue.push(request.arrival_time_s, EventKind.ARRIVAL, request)
        count += 1
    if count == 0:
        raise ConfigurationError("a simulation needs at least one request")

    # A crash deep inside a controller or sampler names the event that broke
    # the run (the failing event was popped and no further handler runs).
    event = None
    try:
        for event in queue.drain():
            kind = event.kind
            if kind is EventKind.ARRIVAL:
                _handle_arrival(run, event.time_s, event.payload)
            elif kind is EventKind.DEPARTURE:
                _handle_departure(run, event.time_s, event.payload)
            elif kind is EventKind.RETRY:
                _schedule_attempt(run, event.payload, event.time_s)
            else:
                run.handle_link_fault(event.time_s, event.payload)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{event.kind.name} handler failed at t={event.time_s:.9e}s "
            f"(event #{queue.events_processed}): {exc}"
        ) from exc
    return run.finish(event.time_s, queue.events_processed, run.busy_s)


#: The two backends of every parity test, each called as
#: ``backend(simulator, requests)``: the oracle and the simulator's own run.
BACKENDS = {"reference": run_reference, "batched": NetworkSimulator.run}


def network_simulator(*, crc: str | None = netsim_engine.PACKET_CRC, **kwargs) -> NetworkSimulator:
    """A simulator whose packets carry the CRC named ``crc`` instead of :data:`PACKET_CRC`.

    ``None`` switches detection (and with it ARQ) off, so failed packets
    are delivered with their residual errors.
    """
    with mock.patch.object(netsim_engine, "PACKET_CRC", crc):
        return NetworkSimulator(**kwargs)


@dataclass
class FixedCodePolicy:
    """Selects one named scheme, so a transfer's coding overhead is known."""

    code_name: str

    def select(self, candidates, *, config):
        (chosen,) = [c for c in candidates if c.code_name == self.code_name]
        return ConfigurationDecision(breakdown=chosen)


def _handle_arrival(run: _ReferenceRun, now_s, request) -> None:
    sim = run.sim
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
                run.refuse(
                    request.source,
                    request.destination,
                    request.payload_bits,
                    now_s,
                    rejected=False,
                )
                return
        else:
            configuration = sim.manager.configure(communication, margin_multiplier=margin)
    except InfeasibleDesignError:
        run.refuse(
            request.source, request.destination, request.payload_bits, now_s, rejected=True
        )
        return
    packets = packets_for_payload(request.payload_bits, sim.packet_bits)
    sampler = sim._sampler_for(configuration)
    state = _TransferState(
        source=request.source,
        destination=request.destination,
        payload_bits=request.payload_bits,
        arrival_time_s=request.arrival_time_s,
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
    _schedule_attempt(run, state, now_s)


def _schedule_attempt(
    run: _ReferenceRun, state, now_s, *, not_before_s: float | None = None
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
    sim = run.sim
    destination = state.destination
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
            run.defer_or_drop(state, now_s, health)
            return
        action = sim._degradation.action_for(health)
        if not action.serve:
            run.finalize_transfer(state, now_s, dropped=state.packets_remaining)
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
    arbiter = run.arbiters.get(destination)
    if arbiter is None:
        # Every ONI but the reader writes on the reader's channel.
        arbiter = run.arbiters[destination] = TokenArbiter(
            writers=[oni for oni in range(sim.config.num_onis) if oni != destination]
        )
    start_s = arbiter.request(state.source, request_time_s, duration_s)
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
        run.apply_attempt_health(state, sim._failures.health(destination, start_s), action)
    if not state.attempt_blacked_out:
        # The attempt's outcome is drawn at *schedule* time: the primary
        # stream is consumed in attempt-schedule order (fixed size per
        # attempt), failing attempts resolve from the separate resolution
        # stream.  A blacked-out attempt consumes no randomness at all (its
        # loss is certain), keeping the streams aligned with a fault-free
        # run.  The outcome is committed when the DEPARTURE pops.
        if sim.mode == "probabilistic":
            # One primary uniform per attempt; only a failing attempt draws
            # further, from the resolution stream.
            sampler, packets, raw = state.sampler, state.packets_remaining, state.attempt_raw_ber
            if sampler._rng.random() >= sampler.attempt_failure_probability(packets, raw):
                state.pending_outcome = TransmissionOutcome(packets, 0, 0, 0)
            else:
                state.pending_outcome = sampler.resolve_failed_attempt(
                    packets, raw_ber=raw, resolve_rng=sim._resolve_rng
                )
        else:
            state.pending_outcome = state.sampler.sample(state.packets_remaining)
    run.busy_s[destination] = run.busy_s.get(destination, 0.0) + duration_s
    run.queue.push(start_s + duration_s, EventKind.DEPARTURE, state)


def _handle_departure(run: _ReferenceRun, now_s, state) -> None:
    sim = run.sim
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
            run.feed_controller(now_s, state, outcome)
    state.packets_delivered += outcome.delivered
    state.packets_with_residual_errors += outcome.delivered_with_errors
    state.residual_bit_errors += outcome.residual_bit_errors
    if outcome.failed_detected and state.retries_left > 0:
        state.packets_remaining = outcome.failed_detected
        not_before = now_s
        if sim.retry_backoff_s > 0.0:
            not_before = now_s + run.retry_delay_s(state)
        if state.deadline_s is None or not_before <= state.deadline_s:
            state.retries_left -= 1
            _schedule_attempt(run, state, now_s, not_before_s=not_before)
            return
        # The backed-off re-attempt would land past the transfer's deadline:
        # give up now instead of burning the channel on it.
    run.finalize_transfer(state, now_s, dropped=outcome.failed_detected)


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


_PAYLOAD_BITS = itemgetter(2)
_ARRIVAL = itemgetter(4)
_COMPLETION = itemgetter(6)
_ARRIVAL_THEN_COMPLETION = itemgetter(4, 6)
_ATTEMPTS = itemgetter(7)
_PACKETS_TOTAL = itemgetter(8)
_PACKETS_SENT = itemgetter(9)
_PACKETS_DELIVERED = itemgetter(10)
_PACKETS_DROPPED = itemgetter(11)
_RESIDUAL_PACKETS = itemgetter(12)
_RESIDUAL_BITS = itemgetter(13)
_ENERGY = itemgetter(15)
_REJECTED = itemgetter(16)


def delivered_payload_bits(record) -> int:
    """Payload bits a record delivered (padding of the last packet excluded)."""
    if record.packets_total == 0:
        return 0
    return round(record.payload_bits * record.packets_delivered / record.packets_total)


def compute_metrics_reference(result: NetworkResult) -> NetworkMetrics:
    """:func:`repro.netsim.metrics.compute_metrics`, one record at a time.

    The energy is summed left to right with ``reduce``, which is what
    ``sum`` does on Python 3.10 and 3.11 (3.12's ``sum`` compensates).
    """
    records = result.records
    num_channels = result.num_channels
    warmup_fraction = result.warmup_fraction
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warm-up fraction must lie in [0, 1)")
    completed = sorted(filterfalse(_REJECTED, records), key=_ARRIVAL_THEN_COMPLETION)
    rejected = sum(map(_REJECTED, records))
    served = list(filter(_ATTEMPTS, completed))
    trimmed = int(len(served) * warmup_fraction)
    tail = served[trimmed:]
    latency = LatencySummary.from_samples(
        list(map(sub, map(_COMPLETION, tail), map(_ARRIVAL, tail)))
    )

    sim_end = max(map(_COMPLETION, records), default=0.0)
    offered = sum(map(_PAYLOAD_BITS, records))
    delivered = sum(map(delivered_payload_bits, completed))
    utilization = {
        reader: (result.busy_s_by_reader.get(reader, 0.0) / sim_end if sim_end > 0 else 0.0)
        for reader in range(num_channels)
    }
    return NetworkMetrics(
        transfers_completed=len(completed),
        transfers_rejected=rejected,
        warmup_transfers_trimmed=trimmed,
        latency=latency,
        sim_end_time_s=float(sim_end),
        delivered_payload_bits=int(delivered),
        offered_throughput_bits_per_s=(offered / sim_end if sim_end > 0 else 0.0),
        delivered_throughput_bits_per_s=(delivered / sim_end if sim_end > 0 else 0.0),
        channel_utilization=utilization,
        total_energy_j=float(
            reduce(add, map(_ENERGY, completed), 0) + result.reconfiguration_energy_j
        ),
        packets_sent=int(sum(map(_PACKETS_SENT, completed))),
        packets_delivered=int(sum(map(_PACKETS_DELIVERED, completed))),
        packets_dropped=int(sum(map(_PACKETS_DROPPED, completed))),
        packets_with_residual_errors=int(sum(map(_RESIDUAL_PACKETS, completed))),
        residual_bit_errors=int(sum(map(_RESIDUAL_BITS, completed))),
        configuration_switches=int(result.configuration_switches),
        reconfiguration_energy_j=float(result.reconfiguration_energy_j),
        packets_retried=int(
            sum(
                map(
                    max,
                    repeat(0),
                    map(sub, map(_PACKETS_SENT, completed), map(_PACKETS_TOTAL, completed)),
                )
            )
        ),
        transfers_dropped=sum(map(bool, map(_PACKETS_DROPPED, completed))),
        channel_downtime_s=float(result.channel_downtime_s),
        availability=(
            max(0.0, 1.0 - result.channel_downtime_s / (num_channels * result.fault_horizon_s))
            if result.fault_horizon_s > 0.0
            else 1.0
        ),
        fault_transitions=int(result.fault_transitions),
        recoveries=int(result.recoveries),
        mean_time_to_recover_s=(
            float(result.recovery_time_s / result.recoveries) if result.recoveries else 0.0
        ),
    )
