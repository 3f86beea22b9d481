"""Epoch-batched event core of the network simulator.

This module is the event loop behind
:meth:`repro.netsim.engine.NetworkSimulator.run`: the semantics of a plain
per-event heap loop (one event object per state change, one handler call
per event — the test suite keeps that loop as its oracle,
``tests/netsim/oracle.py``), restructured so the hot path is array-shaped.
Two structural changes carry it:

**Merge-ordered events.**  The bulk of the event stream (arrivals, fault
transitions) is known before the run starts, so it is sequenced and sorted
once and consumed by cursor; only run-time events (departures, retries) go
through a small tuple heap (:class:`~repro.netsim.events.EpochEventCore`).
No per-event object allocation, no Python ``__lt__`` calls.

**Flush-on-demand epoch sampling.**  The schedule-time sampling contract
(see :mod:`repro.netsim.outcomes`) fixes an attempt's primary draw to
exactly one double, compared against the attempt-level failure
probability, and resolves failing attempts from a separate stream.  The
core therefore does not draw when an attempt is scheduled — it
queues ``(attempt, failure probability)`` and keeps processing events.
The moment a departure pops whose outcome is still queued, the epoch
*flushes*: one ``Generator.random`` call covers every queued attempt in
schedule order, and only the flagged attempts — rare at the BERs links
are designed for — run the conditional per-attempt resolution.  An epoch
is thus the longest stretch of events with no data dependency on an
undrawn outcome (in steady state: the set of in-flight attempts).

**Static fast path.**  A run with no fault timeline, no channel dynamics,
no adaptive controller and no interval trace (the common sweep and
benchmark shape) additionally skips the per-event object machinery
entirely: every transfer is parked in the departure heap as its
*optimistic* finished :class:`~repro.netsim.engine.NetTransferRecord`
with its gate queued for the next epoch flush; the rare attempts the
flush flags are swapped for a stateful fallback before their departure
pops, so clean transfers allocate no ``_TransferState`` and call no
engine method.  Its arrivals replay a memo keyed on ``(target BER,
payload bits)`` that holds the transfer's precomputed fields (packets,
duration, energy, gate probability, coded bits); a miss computes them
from a per-target decision memo and asks the manager only when that
misses too — a :class:`~repro.manager.policies.SelectionPolicy` never
sees the request, so its decision cannot depend on the payload, and
variable-payload (bursty) traffic costs one ``configure`` per target
BER.  Event order, stream consumption and every float expression are
unchanged, so the fast path is byte-identical to the general loop and to
the oracle.

**Determinism argument.**  Event order is byte-identical to the oracle's
because :class:`EpochEventCore` implements the same
``(time, insertion-sequence)`` total order over the same push sequence.
Randomness is byte-identical because ``Generator.random`` fills requests
sequentially from the bit stream — one flush of N queued attempts consumes
exactly the same doubles, in the same order, as N schedule-time draws —
and because everything data-dependent happens on the resolution stream in
the same (schedule) order in both loops.  Everything else (arbiter math,
float accumulation order, record layout) runs the same expressions in the
same event order.  ``tests/netsim/test_engine_parity.py`` pins all of this
against the oracle across the full fault x dynamics x policy grid.

**Memoized arrivals.**  The general loop memoizes the manager's answer,
with the configuration's constants (code name, channel power, coded bits
per packet, design-BER disturb probability) resolved once, per
``(target BER, margin)`` — :meth:`~repro.manager.manager.OpticalLinkManager.configure`
is deterministic given those plus the engine-constant policy, so replaying
the cached configuration is result-identical (only the manager's private
active-pair registry and configuration-id counter advance differently,
neither of which is observable in a :class:`NetworkResult`).  Under a
degradation ladder the key is ``(target BER, margin, ChannelHealth)``:
the health is a frozen value object, the ladder's
:meth:`~repro.manager.policies.DegradationLadder.action_for` is a pure
function of it, and ``configure`` is deterministic given the margin the
action derives — so the whole answer (configuration, or the channel
declared down, or :class:`~repro.exceptions.InfeasibleDesignError`) is
replayed, and the ladder counters ``configure_degraded`` publishes are
republished on every hit.  Both loops send requests that fail cheap
validity checks (source == destination, payload <= 0, an ONI out of
range) down the real manager path, so error behaviour stays identical
too.  The general loop also replays the arbiter recurrence and the
clean-departure finalisation inline, with the expressions of
:meth:`TokenArbiter.request` and ``_finalize_transfer``; with an interval
trace it charges the attempt's and the clean departure's terms to the
bucket ``int(t // interval)`` inline as well (only the non-zero terms of
``_charge_trace``, whose zero terms leave a bucket unchanged).  Faults,
controller switches, downtime and failed or dropped transfers still go
through the engine's ``_charge_trace``/``_finalize_transfer``.  Per-attempt
drift and health queries go through per-channel lookups bound once per run
(:meth:`~repro.netsim.dynamics.ChannelDriftModel.multiplier_lookup`,
:meth:`~repro.netsim.failures.HardFaultModel.timeline`), the same
functions the models' own ``multiplier``/``health`` call.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable

from time import perf_counter

from ..exceptions import ConfigurationError, InfeasibleDesignError, SimulationError
from ..manager.manager import CommunicationRequest
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..traffic.generators import TrafficRequest
from .engine import NetTransferRecord, NetworkResult, _RunState, _TransferState
from .events import EventKind, EpochEventCore
from .metrics import EMPTY_TRACE_BUCKET
from .outcomes import TransmissionOutcome, packets_for_payload

__all__ = ["run_batched"]

#: ``pending_outcome`` sentinel: the attempt sits in the flush queue.
_QUEUED = object()

#: Configuration-memo sentinel: requests under this key are infeasible.
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

    if (
        sim.mode == "probabilistic"
        and controller is None
        and failures is None
        and sim._dynamics is None
        and sim._degradation is None
        and sim._trace_interval_s is None
    ):
        return _run_static_fast(sim, run, core)

    # ------------------------------------------------------------- hot locals
    manager = sim.manager
    manager_release = manager.release
    policy = sim.policy
    dynamics = sim._dynamics
    degradation = sim._degradation
    probabilistic = sim.mode == "probabilistic"
    wants_obs = controller is not None and controller.wants_observations
    # Per-channel drift and health lookups, bound once for the run.
    drift_at = (
        [dynamics.multiplier_lookup(c) for c in range(dynamics.num_channels)]
        if dynamics is not None
        else None
    )
    health_at = (
        [failures.timeline(c).health_at for c in range(failures.num_channels)]
        if failures is not None
        else None
    )
    # ``margin_for`` reads the true drift multiplier only in oracle mode, so
    # no other mode queries the drift at arrival (drift processes are pure
    # in (channel, time): a skipped query moves no stream).  The query runs
    # before the suspect-request check, so it keeps the model's validating
    # ``multiplier``: a bad destination fails as in the oracle.
    arrival_drift = (
        dynamics if controller is not None and controller.mode == "oracle" else None
    )
    need_design_raw = dynamics is not None or failures is not None
    packet_bits = sim.packet_bits
    retry_budget = sim.max_retries if sim.crc is not None else 0
    timeout_s = sim.transfer_timeout_s
    backoff_s = sim.retry_backoff_s
    num_onis = sim.config.num_onis
    num_wavelengths = sim.config.num_wavelengths
    channel_rate = sim.channel_rate_bits_per_s
    trace_interval_s = sim._trace_interval_s
    trace_on = trace_interval_s is not None
    trace = run.trace
    rng_random = sim._rng.random
    resolve_rng = sim._resolve_rng
    telemetry_binomial = sim._telemetry_rng.binomial
    arbiters = run.arbiters
    busy_s = run.busy_s
    active_pairs = run.active_pairs
    records = run.records
    records_append = records.append
    push = core.push
    pop = core.pop
    Record = NetTransferRecord
    tuple_new = tuple.__new__
    ARRIVAL = EventKind.ARRIVAL
    DEPARTURE = EventKind.DEPARTURE
    RETRY = EventKind.RETRY

    #: (target BER, margin) -> (sampler, link constants, design raw BER),
    #: or ``_REJECTED`` when the manager finds the target infeasible.
    memo: dict[tuple, tuple] = {}
    #: (target BER, margin, health) -> (link constants, action, sampler,
    #: design raw BER); the link constants are ``None`` when the ladder
    #: declares the channel down and ``_REJECTED`` when it is infeasible.
    degraded_memo: dict[tuple, tuple] = {}
    #: ChannelHealth -> DegradationAction.
    actions: dict = {}
    #: destination -> inline arbiter state (see :func:`_channel_state`).
    channels: dict[int, list] = {}
    #: Flush queue: (state, sampler, packets, failure prob, raw BER) per
    #: queued attempt, in schedule order.
    pending: list[tuple] = []

    tracer = obs_tracing.ACTIVE
    registry = obs_metrics.ACTIVE

    def flush() -> None:
        """Resolve every queued attempt's outcome in one epoch-wide draw."""
        begin = perf_counter() if tracer is not None else 0.0
        attempts = len(pending)
        uniforms = rng_random(attempts)
        for uniform, (state, sampler, packets, fail_p, raw) in zip(
            uniforms.tolist(), pending
        ):
            if uniform < fail_p:
                state.pending_outcome = sampler.resolve_failed_attempt(
                    packets, raw_ber=raw, resolve_rng=resolve_rng
                )
            else:
                # No failed block anywhere: the outcome is the trivial
                # clean one, represented as None so the departure fast
                # path skips the TransmissionOutcome allocation entirely.
                state.pending_outcome = None
        pending.clear()
        run.epoch_flushes += 1
        if tracer is not None:
            tracer.emit(
                "netsim.epoch_flush",
                perf_counter() - begin,
                {"attempts": attempts},
                start=begin,
            )

    def trace_bucket(t: float) -> list:
        """The interval-trace bucket ``_charge_trace`` would charge at ``t``.

        Callers add only their non-zero terms: the zero terms
        ``_charge_trace`` adds leave a bucket's values unchanged.
        """
        index = int(t // trace_interval_s)
        bucket = trace.get(index)
        if bucket is None:
            bucket = trace[index] = list(EMPTY_TRACE_BUCKET)
        return bucket

    def schedule_attempt(state, now_s: float, not_before_s: float | None = None) -> None:
        """Mirror of the oracle's ``_schedule_attempt`` with queued sampling."""
        request = state.request
        destination = request.destination
        request_time_s = now_s
        if not_before_s is not None and not_before_s > request_time_s:
            request_time_s = not_before_s
        if controller is not None:
            blocked = controller.blocked_until(destination)
            if blocked > request_time_s:
                request_time_s = blocked
        wavelengths = num_wavelengths
        rate_factor = 1.0
        action = None
        if degradation is not None:
            health = health_at[destination](request_time_s)
            if health.down:
                sim._defer_or_drop(state, now_s, health, run)
                return
            action = actions.get(health)
            if action is None:
                action = actions[health] = degradation.action_for(health)
            if not action.serve:
                sim._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
                return
            wavelengths = action.wavelengths
            rate_factor = (num_wavelengths / wavelengths) * action.derate_factor
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
        attempt_energy_j = link.channel_power_w * wavelengths * duration_s
        state.energy_j += attempt_energy_j
        if drift_at is not None:
            multiplier = drift_at[destination](start_s)
            state.attempt_raw_ber = min(1.0, state.design_raw_ber * multiplier)
        elif health_at is not None:
            sim._apply_attempt_health(state, health_at[destination](start_s), action)
        if not state.attempt_blacked_out:
            if probabilistic:
                raw = state.attempt_raw_ber
                pending.append(
                    (
                        state,
                        sampler,
                        remaining,
                        sampler.attempt_failure_probability(remaining, raw),
                        raw,
                    )
                )
                state.pending_outcome = _QUEUED
            else:
                state.pending_outcome = sampler.sample(remaining)
        if trace_on:
            bucket = trace_bucket(start_s)
            bucket[0] += attempt_energy_j
            bucket[1] += remaining
        busy_s[destination] = busy_s.get(destination, 0.0) + duration_s
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
    event = None
    time_s = 0.0
    try:
        while True:
            event = pop()
            if event is None:
                break
            time_s = event[0]
            kind = event[2]
            if kind is ARRIVAL:
                request = event[3]
                source = request.source
                destination = request.destination
                margin = 1.0
                if controller is not None:
                    margin, switched = controller.margin_for(
                        destination,
                        time_s,
                        true_multiplier=(
                            arrival_drift.multiplier(destination, time_s)
                            if arrival_drift is not None
                            else 1.0
                        ),
                    )
                    if switched:
                        sim._record_switch(run, time_s)
                # Suspect requests always take the real manager path, so
                # validation errors surface exactly as in the oracle.
                suspect = (
                    source == destination
                    or request.payload_bits <= 0
                    or source < 0
                    or source >= num_onis
                    or destination < 0
                    or destination >= num_onis
                )
                if degradation is not None:
                    if suspect:
                        entry = None
                    else:
                        health = health_at[destination](time_s)
                        key = (request.target_ber, margin, health)
                        entry = degraded_memo.get(key)
                    if entry is None:
                        communication = CommunicationRequest(
                            source=source,
                            destination=destination,
                            target_ber=request.target_ber,
                            payload_bits=request.payload_bits,
                            policy=policy,
                        )
                        if suspect:
                            health = failures.health(destination, time_s)
                        link = sampler = None
                        design_raw = 0.0
                        try:
                            configuration, action = manager.configure_degraded(
                                communication,
                                health,
                                degradation,
                                base_margin_multiplier=margin,
                            )
                        except InfeasibleDesignError:
                            link = _REJECTED
                            action = degradation.action_for(health)
                        else:
                            if configuration is not None:
                                sampler = sim._sampler_for(configuration)
                                link = sim._link_constants(configuration, sampler)
                                design_raw = sim._raw_ber_for(configuration)
                        entry = (link, action, sampler, design_raw)
                        if not suspect:
                            degraded_memo[key] = entry
                    elif registry is not None:
                        # The counters configure_degraded itself publishes.
                        registry.inc("manager.configure_degraded.calls")
                        registry.inc(f"manager.degradation.rung.{entry[1].rung}")
                    link, _action, sampler, design_raw = entry
                    if link is None:
                        sim._drop_on_arrival(request, time_s, run)
                        continue
                    if link is _REJECTED:
                        rejected_record(request, time_s)
                        continue
                else:
                    key = (request.target_ber, margin)
                    entry = memo.get(key)
                    if entry is None or suspect:
                        communication = CommunicationRequest(
                            source=source,
                            destination=destination,
                            target_ber=request.target_ber,
                            payload_bits=request.payload_bits,
                            policy=policy,
                        )
                        try:
                            configuration = manager.configure(
                                communication, margin_multiplier=margin
                            )
                        except InfeasibleDesignError:
                            memo[key] = _REJECTED
                            rejected_record(request, time_s)
                            continue
                        sampler = sim._sampler_for(configuration)
                        link = sim._link_constants(configuration, sampler)
                        design_raw = (
                            sim._raw_ber_for(configuration) if need_design_raw else 0.0
                        )
                        memo[key] = (sampler, link, design_raw)
                    elif entry is _REJECTED:
                        rejected_record(request, time_s)
                        continue
                    else:
                        sampler, link, design_raw = entry
                packets = packets_for_payload(request.payload_bits, packet_bits)
                state = _TransferState(
                    request=request,
                    sampler=sampler,
                    link=link,
                    packets_total=packets,
                    packets_remaining=packets,
                    retries_left=retry_budget,
                )
                if need_design_raw:
                    state.design_raw_ber = design_raw
                if timeout_s is not None:
                    state.deadline_s = time_s + timeout_s
                pair = (source, destination)
                active_pairs[pair] = active_pairs.get(pair, 0) + 1
                schedule_attempt(state, time_s)
            elif kind is DEPARTURE:
                state = event[3]
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
                    outcome = state.pending_outcome
                    if outcome is _QUEUED:
                        flush()
                        outcome = state.pending_outcome
                    state.pending_outcome = None
                    if outcome is None:
                        # Clean attempt — the common case: deliver all
                        # packets without materialising an outcome object.
                        remaining = state.packets_remaining
                        request = state.request
                        link = state.link
                        if wants_obs:
                            sampler = state.sampler
                            blocks = remaining * sampler.blocks_per_packet
                            observed = float(
                                telemetry_binomial(
                                    blocks,
                                    sampler.block_disturb_probability(
                                        state.attempt_raw_ber
                                    ),
                                )
                            )
                            if controller.observe(
                                request.destination,
                                time_s,
                                blocks=blocks,
                                observed_events=observed,
                                expected_events=blocks
                                * link.design_disturb_probability,
                            ):
                                sim._record_switch(run, time_s)
                        # _finalize_transfer's record, trace charge and pair
                        # release, inline.
                        source = request.source
                        destination = request.destination
                        first_start = state.first_start_s
                        records_append(
                            tuple_new(
                                Record,
                                (
                                    source,
                                    destination,
                                    request.payload_bits,
                                    link.code_name,
                                    request.arrival_time_s,
                                    first_start if first_start >= 0.0 else time_s,
                                    time_s,
                                    state.attempts,
                                    state.packets_total,
                                    state.packets_sent,
                                    state.packets_delivered + remaining,
                                    0,
                                    state.packets_with_residual_errors,
                                    state.residual_bit_errors,
                                    state.coded_bits_sent,
                                    state.energy_j,
                                    False,
                                ),
                            )
                        )
                        if trace_on:
                            bucket = trace_bucket(time_s)
                            bucket[2] += 1
                            bucket[3] += time_s - request.arrival_time_s
                        pair = (source, destination)
                        active = active_pairs[pair] - 1
                        if active:
                            active_pairs[pair] = active
                        else:
                            del active_pairs[pair]
                            manager_release(source, destination)
                        continue
                    if wants_obs:
                        sim._feed_controller(time_s, state, outcome, run)
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
            elif kind is RETRY:
                schedule_attempt(event[3], time_s)
            else:
                sim._handle_link_fault(time_s, event[3], run)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{event[2].name} handler failed at t={event[0]:.9e}s "
            f"(event #{core.events_processed}): {exc}"
        ) from exc
    _store_channels(arbiters, channels)
    run.end_s = time_s

    return sim._finish_run(run)


def _channel_state(sim, arbiters, channels: dict, destination: int) -> list:
    """The arbiter recurrence state of one channel, as a list.

    ``[holder index, busy-until, writer->index, num writers, hop time,
    grants]``: both loops replay :meth:`TokenArbiter.request` on it inline
    (same expressions) and :func:`_store_channels` writes it back at the
    end of the run; ``grants`` is the arbiter's own dict, updated in place.
    """
    arbiter = sim._arbiter_for(destination, arbiters)
    entry = [
        arbiter._holder_index,
        arbiter._busy_until_s,
        {writer: index for index, writer in enumerate(arbiter.writers)},
        len(arbiter.writers),
        arbiter.token_hop_time_s,
        arbiter._grants,
    ]
    channels[destination] = entry
    return entry


def _store_channels(arbiters, channels: dict) -> None:
    """Write the inline arbiter state back, as the oracle leaves it."""
    for destination, channel in channels.items():
        arbiter = arbiters[destination]
        arbiter._holder_index = channel[0]
        arbiter._busy_until_s = channel[1]


def _run_static_fast(sim, run, core: EpochEventCore) -> NetworkResult:
    """Static-channel fast loop: clean transfers carry no per-event state.

    Eligible when the run has no fault timeline, no dynamics, no controller
    and no interval trace — every attempt then serialises at the design
    operating point, so its *complete* transfer record is already known at
    schedule time for the overwhelmingly common case that its gate draw
    comes back clean.  The record is parked in the departure heap with the
    gate queued; a departure popping with its gate still queued flushes the
    epoch (one vectorized primary draw over every queued attempt, in
    schedule order), and only flagged attempts are swapped for a stateful
    fallback that mirrors the oracle's handlers expression for expression
    (retries, deadlines, CRC escapes).  Clean transfers — the rest — incur
    no ``_TransferState``, no engine method call, no sampling machinery.
    Event order, stream consumption and every float computation are
    unchanged from the general loop, so results stay byte-identical.

    The arbiter recurrence (token hops, busy window) is replayed inline on
    per-channel lists — same expressions as :meth:`TokenArbiter.request` —
    and written back to the real arbiters at the end so grant counts and
    channel state land in the result exactly as the oracle leaves them.
    """
    static = core._static
    n_static = len(static)
    heap: list[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    rng_random = sim._rng.random
    resolve_rng = sim._resolve_rng
    manager = sim.manager
    policy = sim.policy
    packet_bits = sim.packet_bits
    retry_budget = sim.max_retries if sim.crc is not None else 0
    timeout_s = sim.transfer_timeout_s
    backoff_s = sim.retry_backoff_s
    num_onis = sim.config.num_onis
    num_wavelengths = sim.config.num_wavelengths
    channel_rate = sim.channel_rate_bits_per_s
    busy_s = run.busy_s
    records_append = run.records.append
    active_pairs = run.active_pairs
    arbiters = run.arbiters
    Record = NetTransferRecord
    State = _TransferState
    # NamedTuple construction normally routes through a generated Python
    # __new__; building the tuple directly halves the cost on the one
    # per-transfer allocation the clean path has left.
    tuple_new = tuple.__new__

    #: (target BER, payload bits) -> (link constants, sampler, packets,
    #: duration, energy, attempt failure probability, code name, coded bits).
    memo: dict[tuple, tuple] = {}
    #: target BER -> (link constants, sampler), or ``_REJECTED``: the
    #: manager's payload-independent answer behind every ``memo`` entry
    #: (rejected requests live here only).
    decisions: dict = {}
    #: destination -> inline arbiter state (see :func:`_channel_state`).
    channels: dict[int, list] = {}
    #: Flush queue of undrawn attempt gates, in schedule order.  First
    #: attempts park ``(seq, fail p, sampler, packets, request,
    #: link constants, start, energy, coded bits)``; re-attempts park
    #: ``(seq, fail p, sampler, packets, state)``.  One vectorized draw per
    #: epoch replaces per-attempt scalar ``Generator.random`` calls (~1 us
    #: of NumPy call overhead each) at identical stream consumption.
    pending: list[tuple] = []
    pending_append = pending.append
    #: seq -> _TransferState for the rare first attempts the gate flagged.
    flagged: dict[int, object] = {}

    tracer = obs_tracing.ACTIVE

    def flush() -> None:
        """Resolve every queued gate in one epoch-wide primary draw."""
        begin = perf_counter() if tracer is not None else 0.0
        attempts = len(pending)
        uniforms = rng_random(attempts)
        for uniform, item in zip(uniforms.tolist(), pending):
            if uniform < item[1]:
                sampler = item[2]
                packets = item[3]
                fourth = item[4]
                if type(fourth) is State:
                    # Re-attempt: the state is already the heap payload.
                    fourth.pending_outcome = sampler.resolve_failed_attempt(
                        packets, resolve_rng=resolve_rng
                    )
                else:
                    # Flagged first attempt: materialise the stateful
                    # fallback its parked record stood in for.
                    (
                        seq,
                        _fail_p,
                        _sampler,
                        _packets,
                        request,
                        link,
                        start_s,
                        energy_j,
                        coded_bits,
                    ) = item
                    state = State(
                        request=request,
                        sampler=sampler,
                        link=link,
                        packets_total=packets,
                        packets_remaining=packets,
                        retries_left=retry_budget,
                    )
                    state.first_start_s = start_s
                    state.attempts = 1
                    state.packets_sent = packets
                    state.coded_bits_sent = coded_bits
                    state.energy_j = energy_j
                    state.pending_outcome = sampler.resolve_failed_attempt(
                        packets, resolve_rng=resolve_rng
                    )
                    if timeout_s is not None:
                        state.deadline_s = request.arrival_time_s + timeout_s
                    pair = (request.source, request.destination)
                    active_pairs[pair] = active_pairs.get(pair, 0) + 1
                    flagged[seq] = state
        pending.clear()
        run.epoch_flushes += 1
        if tracer is not None:
            tracer.emit(
                "netsim.epoch_flush",
                perf_counter() - begin,
                {"attempts": attempts},
                start=begin,
            )

    sequence = core._sequence
    events = 0
    cursor = 0
    time_s = 0.0
    kind_name = "ARRIVAL"
    try:
        while True:
            if cursor < n_static:
                arrival = static[cursor]
                arrival_time = arrival[0]
            else:
                arrival = None
            # Departures strictly before the next arrival pop first; at
            # equal times the arrival wins (static sequence numbers are
            # all smaller than dynamic ones), matching the oracle's total
            # event order.
            while heap and (arrival is None or heap[0][0] < arrival_time):
                departure = heappop(heap)
                events += 1
                time_s = departure[0]
                seq = departure[1]
                payload = departure[2]
                kind_name = "DEPARTURE"
                if pending and seq >= pending[0][0]:
                    # This departure's gate is still queued (as is every
                    # later-scheduled one): flush the epoch.
                    flush()
                if type(payload) is not State:
                    # A parked record: the transfer is finished unless the
                    # flush flagged its gate.
                    if flagged:
                        state = flagged.pop(seq, None)
                        if state is None:
                            records_append(payload)
                            continue
                    else:
                        records_append(payload)
                        continue
                else:
                    state = payload
                outcome = state.pending_outcome
                state.pending_outcome = None
                if outcome is None:
                    state.packets_delivered += state.packets_remaining
                    sim._finalize_transfer(state, time_s, run, dropped=0)
                    continue
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
                        # Stateful re-attempt: the oracle's
                        # _schedule_attempt expressions, inline.
                        sampler = state.sampler
                        link = state.link
                        source = state.request.source
                        destination = state.request.destination
                        coded_bits_pp = link.coded_bits_per_packet
                        duration_s = failed * coded_bits_pp / channel_rate
                        request_time_s = not_before if not_before > time_s else time_s
                        channel = channels.get(destination)
                        if channel is None:
                            channel = _channel_state(sim, arbiters, channels, destination)
                        target = channel[2][source]
                        busy = channel[1]
                        hops = (target - channel[0]) % channel[3]
                        base = request_time_s if request_time_s > busy else busy
                        start_s = base + hops * channel[4]
                        departure_time = start_s + duration_s
                        channel[0] = target
                        channel[1] = departure_time
                        grants = channel[5]
                        grants[source] = grants[source] + 1
                        state.attempts += 1
                        state.packets_sent += failed
                        state.coded_bits_sent += failed * coded_bits_pp
                        attempt_energy_j = (
                            link.channel_power_w * num_wavelengths * duration_s
                        )
                        state.energy_j += attempt_energy_j
                        state.pending_outcome = None
                        pending_append(
                            (
                                sequence,
                                sampler.attempt_failure_probability(failed),
                                sampler,
                                failed,
                                state,
                            )
                        )
                        busy_s[destination] = busy_s.get(destination, 0.0) + duration_s
                        heappush(heap, (departure_time, sequence, state))
                        sequence += 1
                        continue
                sim._finalize_transfer(state, time_s, run, dropped=failed)
            if arrival is None:
                break
            cursor += 1
            events += 1
            time_s = arrival_time
            kind_name = "ARRIVAL"
            request = arrival[3]
            source = request.source
            destination = request.destination
            payload_bits = request.payload_bits
            target_ber = request.target_ber
            key = (target_ber, payload_bits)
            entry = memo.get(key)
            suspect = (
                source == destination
                or payload_bits <= 0
                or source < 0
                or source >= num_onis
                or destination < 0
                or destination >= num_onis
            )
            if entry is None or suspect:
                # Cold (or suspect) request.  A suspect one takes the real
                # manager path, so validation errors surface exactly as in
                # the oracle; a cold one replays its target's
                # decision when that is known (a policy never sees the
                # payload) and only the per-payload fields are computed.
                decision = None if suspect else decisions.get(target_ber)
                if decision is None:
                    communication = CommunicationRequest(
                        source=source,
                        destination=destination,
                        target_ber=target_ber,
                        payload_bits=payload_bits,
                        policy=policy,
                    )
                    try:
                        configuration = manager.configure(
                            communication, margin_multiplier=1.0
                        )
                    except InfeasibleDesignError:
                        decision = _REJECTED
                    else:
                        sampler = sim._sampler_for(configuration)
                        decision = (sim._link_constants(configuration, sampler), sampler)
                    decisions[target_ber] = decision
                if decision is _REJECTED:
                    records_append(
                        Record(
                            source, destination, payload_bits, None,
                            time_s, time_s, time_s,
                            0, 0, 0, 0, 0, 0, 0, 0, 0.0, True,
                        )
                    )
                    continue
                link, sampler = decision
                packets = packets_for_payload(payload_bits, packet_bits)
                coded_bits_pp = link.coded_bits_per_packet
                duration_s = packets * coded_bits_pp / channel_rate
                entry = (
                    link,
                    sampler,
                    packets,
                    duration_s,
                    link.channel_power_w * num_wavelengths * duration_s,
                    sampler.attempt_failure_probability(packets),
                    link.code_name,
                    packets * coded_bits_pp,
                )
                memo[key] = entry
            (
                link,
                sampler,
                packets,
                duration_s,
                energy_j,
                fail_p,
                code_name,
                coded_bits,
            ) = entry
            channel = channels.get(destination)
            if channel is None:
                channel = _channel_state(sim, arbiters, channels, destination)
            target = channel[2][source]
            busy = channel[1]
            hops = (target - channel[0]) % channel[3]
            base = time_s if time_s > busy else busy
            start_s = base + hops * channel[4]
            departure_time = start_s + duration_s
            channel[0] = target
            channel[1] = departure_time
            grants = channel[5]
            grants[source] = grants[source] + 1
            busy_s[destination] = busy_s.get(destination, 0.0) + duration_s
            # Park the optimistic finished record and queue the gate; the
            # epoch flush swaps in a stateful fallback for the rare
            # attempts the draw flags.
            pending_append(
                (
                    sequence,
                    fail_p,
                    sampler,
                    packets,
                    request,
                    link,
                    start_s,
                    energy_j,
                    coded_bits,
                )
            )
            heappush(
                heap,
                (
                    departure_time,
                    sequence,
                    tuple_new(
                        Record,
                        (
                            source,
                            destination,
                            payload_bits,
                            code_name,
                            request.arrival_time_s,
                            start_s,
                            departure_time,
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
                    ),
                ),
            )
            sequence += 1
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(
            f"{kind_name} handler failed at t={time_s:.9e}s "
            f"(event #{events}): {exc}"
        ) from exc
    _store_channels(arbiters, channels)
    core.events_processed = events
    run.end_s = time_s
    return sim._finish_run(run)
