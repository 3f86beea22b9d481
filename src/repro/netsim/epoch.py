"""Epoch-batched event core of the network simulator.

This module is the event loop behind
:meth:`repro.netsim.engine.NetworkSimulator.run`: the semantics of a plain
per-event heap loop (one event object per state change, one handler call
per event — the test suite keeps that loop as its oracle,
``tests/netsim/oracle.py``), restructured so the hot path is array-shaped.
One loop serves every run; three structural changes carry it:

**Merge-ordered events.**  The bulk of the event stream (arrivals, fault
transitions) is known before the run starts, so it is sequenced and sorted
once and consumed by cursor; only run-time events (departures, retries) go
through a small tuple heap (:class:`~repro.netsim.events.EpochEventCore`).
The loop pops the core inline: the next static event is compared with the
heap's top by time alone, because every static sequence number is smaller
than every dynamic one, so a static event wins a tie.  No per-event object
allocation, no Python ``__lt__`` calls.

**Flush-on-demand epoch sampling.**  The schedule-time sampling contract
(see :mod:`repro.netsim.outcomes`) fixes an attempt's primary draw to
exactly one double, compared against the attempt-level failure
probability, and resolves failing attempts from a separate stream.  The
core therefore does not draw when an attempt is scheduled — it queues the
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
allocates no ``_TransferState`` and calls no engine method.  When its
record pops, the adaptive controller's telemetry (one draw on the
telemetry stream, then ``observe``) is charged, where the oracle's
departure handler charges it.  A flush that flags a parked gate swaps in
the stateful transfer the record stood in for, before its departure pops.
Every other attempt is stateful and goes through the one
``schedule_attempt``: re-attempts, deferred retries, first attempts on a
channel the ladder finds down or does not serve (deferred or dropped),
first attempts that start in a blackout (certain loss), and every attempt
of a bit-exact run.

**Determinism argument.**  Event order is byte-identical to the oracle's
because the core implements the same ``(time, insertion-sequence)`` total
order over the same push sequence: a parked record takes the sequence
number the oracle's DEPARTURE push takes, from the core's one counter,
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

**Memoized arrivals.**  The loop memoizes the manager's answer, with the
configuration's constants (code name, channel power, coded bits per
packet, design-BER disturb probability) resolved once, per
``(target BER, margin)`` —
:meth:`~repro.manager.manager.OpticalLinkManager.configure` is
deterministic given those plus the engine-constant policy, so replaying
the cached configuration is result-identical (only the manager's private
active-pair registry and configuration-id counter advance differently,
neither of which is observable in a :class:`NetworkResult`).  A
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
and failed or dropped transfers go through the engine's
``_handle_link_fault``/``_finalize_transfer``.  Per-attempt drift and health
queries go through per-channel lookups bound once per run
(:meth:`~repro.netsim.dynamics.ChannelDriftModel.multiplier_lookup`, the
health index lookups), the same closures the models' own queries answer
from.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from time import perf_counter
from typing import Iterable

from ..exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from ..manager.manager import CommunicationRequest
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..traffic.generators import TrafficRequest
from .engine import NetTransferRecord, NetworkResult, _RunState, _TransferState
from .events import EventKind, EpochEventCore
from .outcomes import TransmissionOutcome, packets_for_payload

__all__ = ["run_batched"]

#: Link-constants sentinel of a decision: the target is infeasible.
_REJECTED = object()


def run_batched(sim, requests: Iterable[TrafficRequest]) -> NetworkResult:
    """Drain a request sequence through the epoch-batched core.

    ``sim`` is the owning :class:`~repro.netsim.engine.NetworkSimulator`;
    cold paths (fault handling, degradation deferrals, finalisation of
    failed or dropped transfers) reuse its handler methods verbatim so there
    is exactly one implementation of their semantics — only the hot
    arrival/departure path is re-laid-out here.
    """
    controller = sim._controller
    if controller is not None:
        controller.reset()
    failures = sim._failures
    # Faults before arrivals: lower sequence numbers at equal times,
    # matching the oracle's push order.
    faults: list[tuple] = (
        [(t.time_s, EventKind.LINK_FAULT, t) for t in failures.transitions()]
        if failures is not None
        else []
    )
    arrival_kind = EventKind.ARRIVAL
    core = EpochEventCore(
        chain(faults, ((r.arrival_time_s, arrival_kind, r) for r in requests))
    )
    if len(core) == len(faults):
        raise ConfigurationError("a simulation needs at least one request")
    run = _RunState(queue=core)

    # ------------------------------------------------------------- hot locals
    manager = sim.manager
    policy = sim.policy
    dynamics = sim._dynamics
    degradation = sim._degradation
    probabilistic = sim.mode == "probabilistic"
    packet_bits = sim.packet_bits
    retry_budget = sim.max_retries if sim.crc is not None else 0
    timeout_s = sim.transfer_timeout_s
    backoff_s = sim.retry_backoff_s
    num_onis = sim.config.num_onis
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
    # Per-channel drift and health lookups, bound once for the run.  Fault
    # healths are interned: a lookup returns an index into ``healths``.
    drift_at = (
        [dynamics.multiplier_lookup(c) for c in range(dynamics.num_channels)]
        if dynamics is not None
        else None
    )
    healths = health_index_at = services = None
    if failures is not None:
        healths, health_index_at = failures.health_index_lookups()
        if degradation is not None:
            #: health index -> (action, wavelengths, rate factor) of the
            #: ladder at that health, or ``None`` when the channel is down or
            #: the ladder does not serve it (the stateful path defers or
            #: drops).  ``action_for`` is pure, so every health is resolved
            #: once up front.
            services = [_service(degradation, health, num_wavelengths) for health in healths]
    need_design_raw = dynamics is not None or failures is not None
    # Without drift or faults every attempt runs at its sampler's design raw
    # BER, so a transfer's gate is fixed by its payload entry.
    fixed_raw = probabilistic and not need_design_raw
    rng_random = sim._rng.random
    resolve_rng = sim._resolve_rng
    telemetry_binomial = sim._telemetry_rng.binomial
    arbiters = run.arbiters
    active_pairs = run.active_pairs
    records_append = run.records.append
    push = core.push
    heap = core._heap
    Record = NetTransferRecord
    State = _TransferState
    # NamedTuple construction normally routes through a generated Python
    # __new__; building the tuple directly halves the cost of a parked
    # record, the one per-transfer allocation a clean transfer has.
    tuple_new = tuple.__new__
    ARRIVAL = EventKind.ARRIVAL
    DEPARTURE = EventKind.DEPARTURE
    RETRY = EventKind.RETRY

    #: (target BER, margin[, health index]) -> (link constants, sampler,
    #: design raw BER, ladder action): the manager's answer.  The link
    #: constants are ``None`` when the ladder declares the channel down and
    #: ``_REJECTED`` when the target is infeasible.
    decisions: dict[tuple, tuple] = {}
    #: (target BER, margin[, health index], payload bits) -> a served
    #: decision plus the payload's fields: (link constants, sampler, design
    #: raw BER, packets, coded bits, nominal duration, nominal energy,
    #: ladder action, gate probability, telemetry) — the gate (see
    #: ``gates``) only when the raw BER is fixed, else ``None, None``.
    transfers: dict[tuple, tuple] = {}
    #: (sampler, packets, raw BER) -> (gate probability, telemetry): the
    #: telemetry is ``(blocks, disturb probability, expected events)`` when
    #: the controller watches failures, else ``None``.
    gates: dict[tuple, tuple] = {}
    #: (design raw BER, start health index, request health index or -1) ->
    #: the attempt's raw BER on a channel that is up.
    raws: dict[tuple, float] = {}
    #: destination -> inline arbiter state (see :func:`_channel_state`).
    channels: dict[int, list] = {}
    #: Flush queue of undrawn gates, in schedule order.  A stateful attempt
    #: queues ``(seq, gate probability, sampler, packets, raw BER, state)``,
    #: a parked one ``(seq, gate probability, sampler, packets, raw BER,
    #: record, request, link constants, design raw BER)``; ``seq`` is its
    #: departure's sequence number.
    pending: list[tuple] = []
    pending_append = pending.append
    #: seq -> the stateful transfer of a parked first attempt the flush
    #: flagged, taken when its departure pops.
    flagged: dict[int, object] = {}

    tracer = obs_tracing.ACTIVE
    registry = obs_metrics.ACTIVE

    def flush() -> None:
        """Resolve every queued gate in one epoch-wide primary draw.

        Only the flagged attempts change: a gated state whose
        ``pending_outcome`` stays ``None`` came back clean, so the
        departure path skips the TransmissionOutcome allocation entirely.
        """
        begin = perf_counter() if tracer is not None else 0.0
        attempts = len(pending)
        uniforms = rng_random(attempts)
        for uniform, item in zip(uniforms.tolist(), pending):
            if uniform < item[1]:
                outcome = item[2].resolve_failed_attempt(
                    item[3], raw_ber=item[4], resolve_rng=resolve_rng
                )
                payload = item[5]
                if type(payload) is Record:
                    # A flagged parked attempt: materialise the stateful
                    # transfer its record stood in for.
                    payload = flagged[item[0]] = first_attempt_state(
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
        run.epoch_flushes += 1
        if tracer is not None:
            tracer.emit(
                "netsim.epoch_flush",
                perf_counter() - begin,
                {"attempts": attempts},
                start=begin,
            )

    def new_state(request, sampler, link, packets: int, design_raw: float):
        """The stateful bookkeeping of one transfer, registered in flight."""
        state = State(
            request=request,
            sampler=sampler,
            link=link,
            packets_total=packets,
            packets_remaining=packets,
            retries_left=retry_budget,
        )
        state.design_raw_ber = design_raw
        if timeout_s is not None:
            # The arrival event's time, as the core holds it.
            state.deadline_s = float(request.arrival_time_s) + timeout_s
        pair = (request.source, request.destination)
        active_pairs[pair] = active_pairs.get(pair, 0) + 1
        return state

    def first_attempt_state(
        request, sampler, link, packets, design_raw, start_s, coded_bits, energy_j
    ):
        """The stateful transfer of a first attempt scheduled at arrival."""
        state = new_state(request, sampler, link, packets, design_raw)
        state.first_start_s = start_s
        state.attempts = 1
        state.packets_sent = packets
        state.coded_bits_sent = coded_bits
        state.energy_j = energy_j
        return state

    def decide(request, time_s: float, margin: float, index, suspect: bool) -> tuple:
        """The manager's answer for one request (see ``decisions``).

        Replayed from the memo unless the request is suspect, which always
        asks the manager so validation errors surface exactly as in the
        oracle.
        """
        target_ber = request.target_ber
        key = (target_ber, margin) if degradation is None else (target_ber, margin, index)
        if not suspect:
            decision = decisions.get(key)
            if decision is not None:
                if degradation is not None and registry is not None:
                    _republish(registry, decision[3])
                return decision
        communication = CommunicationRequest(
            source=request.source,
            destination=request.destination,
            target_ber=target_ber,
            payload_bits=request.payload_bits,
            policy=policy,
        )
        link = sampler = action = None
        design_raw = 0.0
        try:
            if degradation is None:
                configuration = manager.configure(communication, margin_multiplier=margin)
            else:
                health = (
                    failures.health(request.destination, time_s)
                    if suspect
                    else healths[index]
                )
                configuration, action = manager.configure_degraded(
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
                if need_design_raw:
                    design_raw = sim._raw_ber_for(configuration)
        decision = (link, sampler, design_raw, action)
        if not suspect:
            decisions[key] = decision
        return decision

    def gate_for(sampler, packets: int, raw, link) -> tuple:
        """An attempt's gate probability and telemetry (see ``gates``)."""
        fail_p = sampler.attempt_failure_probability(packets, raw)
        if not wants_obs:
            return fail_p, None
        blocks = packets * sampler.blocks_per_packet
        return fail_p, (
            blocks,
            sampler.block_disturb_probability(raw),
            blocks * link.design_disturb_probability,
        )

    def schedule_attempt(state, now_s: float, not_before_s: float | None = None) -> None:
        """Mirror of the oracle's ``_schedule_attempt`` with queued sampling."""
        request = state.request
        destination = request.destination
        request_time_s = now_s
        if not_before_s is not None and not_before_s > request_time_s:
            request_time_s = not_before_s
        if controller is not None:
            blocked = blocked_until(destination)
            if blocked > request_time_s:
                request_time_s = blocked
        wavelengths = num_wavelengths
        rate_factor = 1.0
        action = None
        if degradation is not None:
            index = health_index_at[destination](request_time_s)
            service = services[index]
            if service is None:
                health = healths[index]
                if health.down:
                    sim._defer_or_drop(state, now_s, health, run)
                else:
                    sim._finalize_transfer(
                        state, now_s, run, dropped=state.packets_remaining
                    )
                return
            action, wavelengths, rate_factor = service
        sampler = state.sampler
        link = state.link
        remaining = state.packets_remaining
        coded_bits_pp = link.coded_bits_per_packet
        duration_s = remaining * coded_bits_pp / channel_rate
        if rate_factor != 1.0:
            duration_s *= rate_factor
        # The arbiter recurrence of TokenArbiter.request, inline.
        channel = channels.get(destination)
        if channel is None:
            channel = _channel_state(sim, arbiters, channels, destination)
        source = request.source
        target = channel[2][source]
        busy = channel[1]
        hops = (target - channel[0]) % channel[3]
        base = request_time_s if request_time_s > busy else busy
        start_s = base + hops * channel[4]
        channel[0] = target
        channel[1] = start_s + duration_s
        grants = channel[5]
        grants[source] = grants[source] + 1
        if state.first_start_s < 0.0:
            state.first_start_s = start_s
        state.attempts += 1
        state.packets_sent += remaining
        state.coded_bits_sent += remaining * coded_bits_pp
        state.energy_j += link.channel_power_w * wavelengths * duration_s
        if drift_at is not None:
            multiplier = drift_at[destination](start_s)
            state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
        elif healths is not None:
            sim._apply_attempt_health(
                state, healths[health_index_at[destination](start_s)], action
            )
        if not state.attempt_blacked_out:
            if probabilistic:
                # Gated: the outcome stays None unless the flush flags it.
                state.pending_outcome = None
                raw = state.attempt_raw_ber
                pending_append(
                    (
                        core._sequence,
                        sampler.attempt_failure_probability(remaining, raw),
                        sampler,
                        remaining,
                        raw,
                        state,
                    )
                )
            else:
                state.pending_outcome = sampler.sample(remaining)
        channel[6] += duration_s
        push(start_s + duration_s, DEPARTURE, state)

    def rejected_record(request, now_s: float) -> None:
        records_append(
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

    # --------------------------------------------------------------- the loop
    static = core._static
    n_static = len(static)
    cursor = 0
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
            # The core's pop, inline: heap events strictly earlier than the
            # next static event go first; at equal times the static event
            # wins, its sequence number being the smaller.
            if cursor < n_static:
                upcoming = static[cursor]
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
                    schedule_attempt(state, time_s)
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
                        sim._feed_controller(time_s, state, outcome)
                state.packets_delivered += outcome.packets - outcome.failed_detected
                state.packets_with_residual_errors += outcome.delivered_with_errors
                state.residual_bit_errors += outcome.residual_bit_errors
                failed = outcome.failed_detected
                if failed and state.retries_left > 0:
                    state.packets_remaining = failed
                    not_before = time_s
                    if backoff_s > 0.0:
                        not_before = time_s + sim._retry_delay_s(state)
                    if state.deadline_s is None or not_before <= state.deadline_s:
                        state.retries_left -= 1
                        schedule_attempt(state, time_s, not_before)
                        continue
                sim._finalize_transfer(state, time_s, run, dropped=failed)
            if upcoming is None:
                break
            cursor += 1
            events += 1
            event = upcoming
            time_s = upcoming_s
            if faults and event[2] is not ARRIVAL:
                sim._handle_link_fault(time_s, event[3], run)
                continue
            request = event[3]
            source = request.source
            destination = request.destination
            payload_bits = request.payload_bits
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
                key = (request.target_ber, margin, payload_bits)
                entry = transfers.get(key)
            else:
                index = health_index_at[destination](time_s)
                key = (request.target_ber, margin, index, payload_bits)
                entry = transfers.get(key)
                if entry is not None and registry is not None:
                    _republish(registry, entry[7])
            if entry is None:
                link, sampler, design_raw, action = decide(
                    request, time_s, margin, index, suspect
                )
                if link is None:
                    sim._drop_on_arrival(request, time_s, run)
                    continue
                if link is _REJECTED:
                    rejected_record(request, time_s)
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
                    *(gate_for(sampler, packets, None, link) if fixed_raw else (None, None)),
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
                    new_state(request, sampler, link, packets, design_raw), time_s
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
                        new_state(request, sampler, link, packets, design_raw),
                        time_s,
                    )
                    continue
                action, wavelengths, rate_factor = service
                if rate_factor != 1.0:
                    duration_s *= rate_factor
                energy_j = link.channel_power_w * wavelengths * duration_s
            # The arbiter recurrence of TokenArbiter.request, inline.
            channel = channels.get(destination)
            if channel is None:
                channel = _channel_state(sim, arbiters, channels, destination)
            target = channel[2][source]
            busy = channel[1]
            hops = (target - channel[0]) % channel[3]
            base = request_time_s if request_time_s > busy else busy
            start_s = base + hops * channel[4]
            departure_s = start_s + duration_s
            channel[0] = target
            channel[1] = departure_s
            grants = channel[5]
            grants[source] = grants[source] + 1
            channel[6] += duration_s
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
                            state = first_attempt_state(
                                request,
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
                        raw = raws[raw_key] = sim._attempt_raw_ber(
                            design_raw, health, action
                        )
                gate_key = (sampler, packets, raw)
                gate = gates.get(gate_key)
                if gate is None:
                    gate = gates[gate_key] = gate_for(sampler, packets, raw, link)
                fail_p, telemetry = gate
            # Park the finished record and queue its gate; a flush that
            # flags the gate swaps in the stateful transfer.
            seq = core._sequence
            core._sequence = seq + 1
            record = tuple_new(
                Record,
                (
                    source,
                    destination,
                    payload_bits,
                    link.code_name,
                    request.arrival_time_s,
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
                (seq, fail_p, sampler, packets, raw, record, request, link, design_raw)
            )
            heappush(heap, (departure_s, seq, DEPARTURE, record, telemetry))
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{event[2].name} handler failed at t={event[0]:.9e}s "
            f"(event #{events}): {exc}"
        ) from exc
    _store_channels(arbiters, channels, run.busy_s)
    core.events_processed = events
    run.end_s = time_s

    return sim._finish_run(run)


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


def _channel_state(sim, arbiters, channels: dict, destination: int) -> list:
    """The arbiter recurrence state of one channel, as a list.

    ``[holder index, busy-until, writer->index, num writers, hop time,
    grants, busy seconds]``: the loop replays :meth:`TokenArbiter.request`
    on it inline (same expressions) and adds each attempt's serialisation
    time to the busy seconds; :func:`_store_channels` writes both back at
    the end of the run.  ``grants`` is the arbiter's own dict, updated in
    place.
    """
    arbiter = sim._arbiter_for(destination, arbiters)
    entry = [
        arbiter._holder_index,
        arbiter._busy_until_s,
        {writer: index for index, writer in enumerate(arbiter.writers)},
        len(arbiter.writers),
        arbiter.token_hop_time_s,
        arbiter._grants,
        0.0,
    ]
    channels[destination] = entry
    return entry


def _store_channels(arbiters, channels: dict, busy_s: dict) -> None:
    """Write the inline channel state back, as the oracle leaves it.

    A channel's state is built at its first attempt, when the oracle first
    charges its busy time, so ``busy_s`` gets its keys in the same order.
    """
    for destination, channel in channels.items():
        arbiter = arbiters[destination]
        arbiter._holder_index = channel[0]
        arbiter._busy_until_s = channel[1]
        busy_s[destination] = channel[6]
