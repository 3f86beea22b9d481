"""Discrete-event simulation of the full MWSR ring under managed traffic.

This is the subsystem that joins the layers the repository previously only
evaluated in isolation: traffic generators produce requests, each request is
configured by the :class:`~repro.manager.manager.OpticalLinkManager` (policy
picks the ECC scheme and laser power for the requested BER), the coded
payload contends for its destination's channel through a per-channel
:class:`~repro.interconnect.arbitration.TokenArbiter`, faults corrupt the
packets at the operating point's raw BER, and CRC-detected failures are
retransmitted (ARQ) until delivered or out of retries.

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

Determinism: events are totally ordered by ``(time, insertion sequence)``
and every random draw — traffic aside — flows through two
``SeedSequence``-resolved generators in deterministic event order, so a
run is a pure function of its seed.  The *primary* stream pays each
attempt's fixed-size draw in attempt-schedule order; the *resolution*
stream (spawned from the primary seed) pays the data-dependent draws of
the rare failing attempts.  Splitting the streams this way is what lets
the epoch-batched event core of :mod:`repro.netsim.epoch`, which
:meth:`NetworkSimulator.run` drives, concatenate many attempts' primary
draws into one vectorized call.  There is no wall-clock anywhere.

This module holds the simulator's configuration, its per-run state and
the cold-path handlers (fault transitions, blackout deferrals,
finalisation of failed or dropped transfers, result assembly) that the
event core calls.  The test suite keeps a plain per-event heap loop over
the same handlers (``tests/netsim/oracle.py``) and checks the event core
against it, byte for byte.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple

import numpy as np

from ..coding.montecarlo import resolve_rng
from ..coding.crc import CyclicRedundancyCheck
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..interconnect.arbitration import TokenArbiter
from ..interconnect.mwsr import MWSRChannel
from ..link.design import OpticalLinkDesigner
from ..manager.manager import LinkConfiguration, OpticalLinkManager
from ..manager.policies import DegradationLadder, SelectionPolicy
from ..manager.runtime import AdaptiveEccController
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..simulation.faults import IndependentErrorModel
from ..traffic.generators import TrafficRequest
from .dynamics import ChannelDriftModel
from .events import EpochEventCore, EventKind
from .failures import HardFaultModel
from .metrics import NetworkMetrics, compute_metrics
from .outcomes import (
    BitExactOutcomeSampler,
    ProbabilisticOutcomeSampler,
    bit_exact_error_sources,
    packets_for_payload,
)

__all__ = ["NetTransferRecord", "NetworkResult", "NetworkSimulator", "check_settings"]

#: Name of the per-packet CRC (see
#: :class:`~repro.coding.crc.CyclicRedundancyCheck`).  ``None`` would switch
#: detection off: with no CRC there is no ARQ, and every failed packet is
#: delivered carrying its residual errors.
PACKET_CRC: str | None = "crc16-ccitt"

#: Supported packet-outcome modes.
MODES = ("probabilistic", "bit-exact")


class NetTransferRecord(NamedTuple):
    """End-to-end outcome of one traffic request.

    A ``NamedTuple`` rather than a frozen dataclass: the event core
    constructs one per transfer on its hottest path, and tuple construction
    is ~6x cheaper than a frozen dataclass ``__init__`` (which routes every
    field through ``object.__setattr__``).
    """

    source: int
    destination: int
    payload_bits: int
    code_name: str | None
    arrival_time_s: float
    first_start_time_s: float
    completion_time_s: float
    attempts: int
    packets_total: int
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    packets_with_residual_errors: int
    residual_bit_errors: int
    coded_bits_sent: int
    energy_j: float
    rejected: bool = False

    @property
    def latency_s(self) -> float:
        """Arrival-to-delivery latency (queueing + token + serialisation + ARQ)."""
        return self.completion_time_s - self.arrival_time_s

    @property
    def delivered_payload_bits(self) -> int:
        """Payload bits delivered (padding of the last packet excluded)."""
        if self.packets_total == 0:
            return 0
        return round(self.payload_bits * self.packets_delivered / self.packets_total)


@dataclass(slots=True)
class NetworkResult:
    """Everything a run produced: per-transfer records plus channel state."""

    records: List[NetTransferRecord]
    busy_s_by_reader: Dict[int, float]
    num_channels: int
    warmup_fraction: float
    events_processed: int
    #: Online-control accounting (zero without a controller).
    configuration_switches: int = 0
    reconfiguration_energy_j: float = 0.0
    #: Hard-fault accounting (all zero without a fault model): channel-seconds
    #: spent hard-down, health transitions processed, completed down->up
    #: recoveries with their total duration, and the observed simulation span
    #: the downtime is measured against.
    channel_downtime_s: float = 0.0
    fault_transitions: int = 0
    recoveries: int = 0
    recovery_time_s: float = 0.0
    fault_horizon_s: float = 0.0

    def metrics(self) -> NetworkMetrics:
        """Aggregate the records, trimming the run's warm-up fraction."""
        return compute_metrics(
            self.records,
            busy_s_by_reader=self.busy_s_by_reader,
            num_channels=self.num_channels,
            warmup_fraction=self.warmup_fraction,
            configuration_switches=self.configuration_switches,
            reconfiguration_energy_j=self.reconfiguration_energy_j,
            channel_downtime_s=self.channel_downtime_s,
            fault_transitions=self.fault_transitions,
            recoveries=self.recoveries,
            recovery_time_s=self.recovery_time_s,
            fault_horizon_s=self.fault_horizon_s,
        )

    @property
    def packets_sent(self) -> int:
        """Total packet transmissions of the run (ARQ retries included)."""
        return sum(record.packets_sent for record in self.records)


@dataclass(slots=True)
class _RunState:
    """Per-run mutable state shared by the event handlers."""

    #: The event core driving the run.  The shared handlers only push
    #: RETRY events onto it; ``events_processed`` is read off it at the end.
    queue: EpochEventCore
    arbiters: Dict[int, TokenArbiter] = field(default_factory=dict, init=False)
    busy_s: Dict[int, float] = field(default_factory=dict, init=False)
    records: List[NetTransferRecord] = field(default_factory=list, init=False)
    #: Hard-fault accounting: channels currently down (channel -> the time
    #: they went down) plus the run-wide downtime / transition / recovery
    #: counters and the time of the last processed event.
    down_since: Dict[int, float] = field(default_factory=dict, init=False)
    downtime_s: float = field(default=0.0, init=False)
    fault_transitions: int = field(default=0, init=False)
    recoveries: int = field(default=0, init=False)
    recovery_time_s: float = field(default=0.0, init=False)
    end_s: float = field(default=0.0, init=False)
    #: Number of epoch-wide vectorized gate draws the event core performed
    #: (0 for a core that draws per attempt).  Pure accounting — never
    #: consulted by the simulation.
    epoch_flushes: int = field(default=0, init=False)


class _LinkConstants(NamedTuple):
    """Per-configuration constants of a transfer, resolved once.

    Each sits behind a property chain or a cached method of the
    configuration or its sampler (``channel_power_w`` alone walks three
    properties and a three-term sum), so the event core resolves them once
    per configuration instead of once per attempt or departure.
    """

    code_name: str
    channel_power_w: float
    coded_bits_per_packet: int
    #: Block disturb probability at the design raw BER (the failure
    #: monitor's expected rate); ``None`` in bit-exact mode, which runs no
    #: monitor.
    design_disturb_probability: float | None


@dataclass(slots=True)
class _TransferState:
    """Mutable bookkeeping of one in-flight transfer."""

    request: TrafficRequest
    sampler: object
    link: _LinkConstants
    packets_total: int
    packets_remaining: int
    retries_left: int
    first_start_s: float = field(default=-1.0, init=False)
    attempts: int = field(default=0, init=False)
    packets_sent: int = field(default=0, init=False)
    packets_delivered: int = field(default=0, init=False)
    packets_with_residual_errors: int = field(default=0, init=False)
    residual_bit_errors: int = field(default=0, init=False)
    coded_bits_sent: int = field(default=0, init=False)
    energy_j: float = field(default=0.0, init=False)
    #: Design-point raw BER of the configuration (set when dynamics or a
    #: fault model are active) and the degraded raw BER of the current
    #: attempt.
    design_raw_ber: float = field(default=0.0, init=False)
    attempt_raw_ber: float | None = field(default=None, init=False)
    #: Hard-fault bookkeeping: blackout deferrals consumed from the retry
    #: budget, whether the in-flight attempt serialised into a dark channel,
    #: and the absolute per-transfer timeout (``None`` without one).
    deferrals: int = field(default=0, init=False)
    attempt_blacked_out: bool = field(default=False, init=False)
    deadline_s: float | None = field(default=None, init=False)
    #: Outcome of the in-flight attempt.  Sampled when the attempt is
    #: *scheduled* and committed when its DEPARTURE pops: either the
    #: resolved :class:`~repro.netsim.outcomes.TransmissionOutcome` or the
    #: event core's flush-queue sentinel, parked here until the first
    #: dependent departure forces the epoch's vectorized draw.
    pending_outcome: object = field(default=None, init=False)


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
    registry, records: List[NetTransferRecord], events_processed: int, faults: int
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
        # the NetTransferRecord field order above.
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


def check_settings(*, mode: str, packet_bits: int, max_retries: int, warmup_fraction: float) -> None:
    """Reject the scalar settings a :class:`NetworkSimulator` cannot run with.

    The constructor calls it, and so do the sweep grids when they are
    described, so a bad grid option is a :class:`ConfigurationError`
    (HTTP 400) before any shard runs.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; available: {MODES}")
    if packet_bits < 1:
        raise ConfigurationError("packet size must be at least one bit")
    if max_retries < 0:
        raise ConfigurationError("retry budget cannot be negative")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warm-up fraction must lie in [0, 1)")


class NetworkSimulator:
    """Discrete-event simulator of the managed MWSR ring.

    Parameters
    ----------
    config:
        Interconnect parameters (ONI count, wavelengths, rates).
    manager:
        A pre-built :class:`OpticalLinkManager`; one is constructed from
        ``config`` when omitted.  Sharing a manager across runs keeps its
        per-target candidate cache warm.
    policy:
        Selection policy attached to every request (``None`` keeps the
        manager's default).
    mode:
        ``"probabilistic"`` (analytic frame-error sampling, the fast
        default) or ``"bit-exact"`` (real fault-model error patterns
        decoded by the packed coding API on the all-zero codeword, for
        cross-validation; see
        :class:`~repro.netsim.outcomes.BitExactOutcomeSampler`).
    packet_bits:
        Payload bits per packet; payloads are split and zero padded, and
        each packet carries the :data:`PACKET_CRC` checksum.
    max_retries:
        ARQ retransmission budget per transfer; once exhausted the still
        failing packets are dropped.
    fault_model:
        Optional shared fault-injection model (e.g. a
        :class:`~repro.simulation.faults.BurstErrorModel`).  The default
        injects independent flips at each configuration's design-point raw
        BER.  In probabilistic mode a custom model contributes its
        ``expected_ber`` (burst correlation is only visible bit-exactly).
    rng / seed:
        The usual seeding vocabulary (:func:`resolve_rng`); pass at most
        one.  Everything stochastic inside the engine draws from this
        generator — plus a resolution stream spawned from it for the
        data-dependent draws of failing attempts — in event order.
    warmup_fraction:
        Leading fraction of completed transfers excluded from the latency
        summary (queues fill during warm-up).
    dynamics:
        Optional :class:`~repro.netsim.dynamics.ChannelDriftModel` making
        the raw channel BER time-varying (``raw(t) = raw_design * m(t)``
        per destination channel).  Probabilistic mode only, and mutually
        exclusive with a custom ``fault_model``.
    controller:
        Optional :class:`~repro.manager.runtime.AdaptiveEccController`
        choosing each transfer's drift margin online (static worst-case /
        adaptive / oracle).  Level switches charge the controller's
        reconfiguration latency (the channel is blocked) and energy.
    telemetry_seed:
        Seed of the *telemetry* stream the adaptive controller's failure
        monitor samples from.  Kept separate from ``rng``/``seed`` so
        enabling the controller never perturbs the engine's main stream —
        a zero-drift adaptive run is byte-identical to a static one.  Pass
        a seed for reproducible adaptive runs.
    failures:
        Optional :class:`~repro.netsim.failures.HardFaultModel` injecting
        hard faults (lane fails, stuck rings, laser droop, blackouts) per
        destination channel.  Probabilistic mode only, and mutually
        exclusive with both ``fault_model`` and ``dynamics``.  An attempt
        serialised into a down channel is lost in full (loss of light is
        physically detectable, so the loss counts as detected even without
        a CRC); degraded channels corrupt at the health's penalised raw
        BER, with lost wavelengths contributing randomised bits unless a
        degradation ladder remaps around them.
    degradation:
        Optional :class:`~repro.manager.policies.DegradationLadder` reacting
        to the fault model's health per transfer: remap onto surviving
        wavelengths, escalate the ECC margin, derate the data rate or
        declare the channel down (requests are dropped without spending
        energy).  Requires ``failures`` and a positive ``retry_backoff_s``
        (blackout deferrals re-enter through the backed-off RETRY path).
    retry_backoff_s:
        Base of the exponential ARQ backoff: the ``n``-th re-attempt of a
        transfer is not issued before ``retry_backoff_s * 2**n`` after the
        failure.  The default of 0 keeps the historical immediate-ARQ
        behaviour bit-for-bit.
    transfer_timeout_s:
        Per-transfer deadline relative to arrival: once a retry would start
        beyond it, the remaining packets are dropped instead (bounds how
        long a transfer can chase a dark channel).
    """

    def __init__(
        self,
        *,
        config: PaperConfig = DEFAULT_CONFIG,
        manager: OpticalLinkManager | None = None,
        policy: SelectionPolicy | None = None,
        mode: str = "probabilistic",
        packet_bits: int = 512,
        max_retries: int = 4,
        fault_model=None,
        rng: np.random.Generator | None = None,
        seed: int | np.random.SeedSequence | None = None,
        warmup_fraction: float = 0.1,
        dynamics: ChannelDriftModel | None = None,
        controller: AdaptiveEccController | None = None,
        telemetry_seed: int | np.random.SeedSequence | None = None,
        failures: HardFaultModel | None = None,
        degradation: DegradationLadder | None = None,
        retry_backoff_s: float = 0.0,
        transfer_timeout_s: float | None = None,
    ):
        check_settings(
            mode=mode,
            packet_bits=packet_bits,
            max_retries=max_retries,
            warmup_fraction=warmup_fraction,
        )
        if dynamics is not None and mode != "probabilistic":
            raise ConfigurationError(
                "time-varying channels are only supported in probabilistic mode"
            )
        if (
            controller is not None
            and controller.wants_observations
            and mode != "probabilistic"
        ):
            raise ConfigurationError(
                "the adaptive controller's failure monitor samples analytic "
                "correction telemetry; it is only supported in probabilistic mode"
            )
        if dynamics is not None and dynamics.num_channels < config.num_onis:
            raise ConfigurationError(
                "the drift model must cover every reader channel of the ring"
            )
        if dynamics is not None and fault_model is not None:
            raise ConfigurationError(
                "a custom fault model fixes the raw BER; it cannot be combined "
                "with channel dynamics"
            )
        if mode == "bit-exact" and fault_model is not None:
            bit_exact_error_sources(fault_model)
        if failures is not None:
            if mode != "probabilistic":
                raise ConfigurationError(
                    "hard-fault models are only supported in probabilistic mode"
                )
            if fault_model is not None or dynamics is not None:
                raise ConfigurationError(
                    "a hard-fault model fixes the per-attempt raw BER; it cannot "
                    "be combined with a custom fault model or channel dynamics"
                )
            if failures.num_channels != config.num_onis:
                raise ConfigurationError(
                    "the fault model must cover every reader channel of the ring"
                )
            if failures.num_wavelengths != config.num_wavelengths:
                raise ConfigurationError(
                    "the fault model's wavelength count must match the interconnect"
                )
        if degradation is not None:
            if failures is None:
                raise ConfigurationError(
                    "a degradation ladder reacts to hard faults; pass failures too"
                )
            if not retry_backoff_s > 0.0:
                raise ConfigurationError(
                    "a degradation ladder defers through the backed-off retry "
                    "path; retry_backoff_s must be positive"
                )
            if degradation.num_wavelengths != config.num_wavelengths:
                raise ConfigurationError(
                    "the degradation ladder's wavelength count must match the "
                    "interconnect"
                )
        # Chained comparisons reject NaN too: a NaN backoff or timeout would
        # pass a plain ``<= 0`` check and silently corrupt the run (a NaN
        # deadline turns every retry into a drop).
        if not 0.0 <= retry_backoff_s < math.inf:
            raise ConfigurationError("retry backoff must be finite and non-negative")
        if transfer_timeout_s is not None and not transfer_timeout_s > 0.0:
            raise ConfigurationError("transfer timeout must be positive")
        self.config = config
        self.manager = manager if manager is not None else OpticalLinkManager(config=config)
        self.policy = policy
        self.mode = mode
        self.packet_bits = int(packet_bits)
        self.crc = CyclicRedundancyCheck.from_name(PACKET_CRC) if PACKET_CRC is not None else None
        self.max_retries = int(max_retries)
        self.warmup_fraction = float(warmup_fraction)
        self._fault_model = fault_model
        self._rng = resolve_rng(rng, seed)
        # The resolution stream (failing attempts' CRC-escape/binomial draws)
        # is a deterministic function of the primary seed, so passing the
        # same rng/seed still makes the whole run a pure function of it.  The
        # child is spawned through the bit generator's seed sequence, as
        # ``Generator.spawn`` (NumPy >= 1.25 only) does, so every supported
        # NumPy derives the same stream.
        bit_generator = self._rng.bit_generator
        seed_seq = bit_generator._seed_seq
        if seed_seq is not None:
            self._resolve_rng = np.random.Generator(
                type(bit_generator)(seed_seq.spawn(1)[0])
            )
        else:
            # A legacy-seeded bit generator has no seed sequence and cannot
            # spawn on any NumPy version: seed the child from a main draw.
            self._resolve_rng = np.random.default_rng(
                int(self._rng.integers(0, np.iinfo(np.int64).max))
            )
        self._dynamics = dynamics
        self._controller = controller
        self._telemetry_rng = resolve_rng(None, telemetry_seed)
        self._failures = failures
        self._degradation = degradation
        self.retry_backoff_s = float(retry_backoff_s)
        self.transfer_timeout_s = (
            float(transfer_timeout_s) if transfer_timeout_s is not None else None
        )
        self._designer = OpticalLinkDesigner(config=config)
        self._codes_by_name = {code.name: code for code in self.manager.codes}
        self._samplers: Dict[tuple, object] = {}

    # ------------------------------------------------------------------ helpers
    @property
    def channel_rate_bits_per_s(self) -> float:
        """Serialisation rate of one waveguide group (NW wavelengths at Fmod)."""
        return self.config.num_wavelengths * self.config.modulation_rate_hz

    def _arbiter_for(self, reader: int, arbiters: Dict[int, TokenArbiter]) -> TokenArbiter:
        if reader not in arbiters:
            channel = MWSRChannel(reader=reader, config=self.config)
            arbiters[reader] = TokenArbiter(writers=channel.writers)
        return arbiters[reader]

    def _raw_ber_for(self, configuration: LinkConfiguration) -> float:
        """Raw channel BER of the selected operating point.

        Solved at the configuration's *design* target — the drift-derated
        one when a margin was provisioned.  The designer memoizes the point
        per (code, target), so this is a dictionary lookup after the first
        request.
        """
        code = self._codes_by_name[configuration.code_name]
        point = self._designer.design_point(code, configuration.design_target_ber)
        return float(point.raw_channel_ber)

    def _sampler_for(self, configuration: LinkConfiguration):
        """Outcome sampler of one (code, design target BER) configuration (cached)."""
        key = (configuration.code_name, float(configuration.design_target_ber))
        if key not in self._samplers:
            code = self._codes_by_name[configuration.code_name]
            raw_ber = (
                float(self._fault_model.expected_ber)
                if self._fault_model is not None
                else self._raw_ber_for(configuration)
            )
            if self.mode == "probabilistic":
                sampler = ProbabilisticOutcomeSampler(
                    code,
                    raw_ber,
                    packet_bits=self.packet_bits,
                    crc_width=self.crc.width if self.crc is not None else 0,
                    rng=self._rng,
                )
            else:
                error_model = (
                    self._fault_model
                    if self._fault_model is not None
                    else IndependentErrorModel(raw_ber, rng=self._rng)
                )
                sampler = BitExactOutcomeSampler(
                    code,
                    error_model,
                    packet_bits=self.packet_bits,
                    crc=self.crc,
                    rng=self._rng,
                )
            self._samplers[key] = sampler
        return self._samplers[key]

    def _link_constants(self, configuration: LinkConfiguration, sampler) -> _LinkConstants:
        """Resolve the per-configuration constants a transfer reads per attempt."""
        return _LinkConstants(
            configuration.code_name,
            configuration.channel_power_w,
            sampler.coded_bits_per_packet,
            sampler.block_disturb_probability() if self.mode == "probabilistic" else None,
        )

    # ------------------------------------------------------------------ simulation
    def run(self, requests: Iterable[TrafficRequest]) -> NetworkResult:
        """Simulate a finite request sequence to completion.

        The events drain through the epoch-batched core of
        :mod:`repro.netsim.epoch`.  The cyclic garbage collector is paused
        for the run.  A run allocates hundreds of thousands of tracked
        containers (requests, records, heap entries) but creates no
        reference cycles, so every collection it would trigger walks them
        all and frees nothing, while reference counting frees the same
        memory with the collector on or off.  The previous state is
        restored on the way out, crash or not; a collector the caller
        already disabled stays disabled.  The pause is process-wide, like
        the collector; ``tests/netsim/test_engine.py`` guards the no-cycle
        invariant.
        """
        from .epoch import run_batched

        collecting = gc.isenabled()
        gc.disable()
        try:
            tracer = obs_tracing.ACTIVE
            if tracer is None:
                return run_batched(self, requests)
            with tracer.span("netsim.run", mode=self.mode):
                return run_batched(self, requests)
        finally:
            if collecting:
                gc.enable()

    def _finish_run(self, run: _RunState) -> NetworkResult:
        """Settle end-of-run fault accounting and assemble the result.

        Everything here is a pure function of the drained run state, so
        byte-identical run states (which the parity suite pins against the
        test oracle) yield byte-identical results.
        """
        if self._failures is not None and run.down_since:
            # Channels still down when the run ends: their outage is charged
            # up to the last processed event, but does not count as a
            # recovery (they never came back).
            for channel in sorted(run.down_since):
                started = run.down_since[channel]
                if run.end_s > started:
                    run.downtime_s += run.end_s - started
            run.down_since.clear()

        result = NetworkResult(
            records=run.records,
            busy_s_by_reader=run.busy_s,
            num_channels=self.config.num_onis,
            warmup_fraction=self.warmup_fraction,
            events_processed=run.queue.events_processed,
            configuration_switches=(
                self._controller.switch_count if self._controller is not None else 0
            ),
            reconfiguration_energy_j=(
                self._controller.reconfiguration_energy_j
                if self._controller is not None
                else 0.0
            ),
            channel_downtime_s=run.downtime_s,
            fault_transitions=run.fault_transitions,
            recoveries=run.recoveries,
            recovery_time_s=run.recovery_time_s,
            fault_horizon_s=run.end_s if self._failures is not None else 0.0,
        )
        registry = obs_metrics.ACTIVE
        if registry is not None:
            self._publish_run_metrics(registry, result, run)
        return result

    def _publish_run_metrics(
        self, registry, result: NetworkResult, run: _RunState
    ) -> None:
        """Publish the finished run's telemetry into the active registry.

        Everything is derived from aggregates the run maintains anyway
        (records, event counts, fault accounting), so metrics collection
        adds nothing to the per-event hot path and — crucially — reads no
        random generator: a run with metrics on is byte-identical to one
        with metrics off.  Scalars the run already tracks are published
        eagerly; sums that must scan the (immutable, possibly huge) record
        table are deferred to snapshot time via
        :meth:`MetricsRegistry.defer`, keeping the instrumented ``run()``
        within a few percent of the uninstrumented one.
        """
        records = result.records
        arrivals = len(records)
        faults = result.fault_transitions
        events = result.events_processed
        counter = registry.counter
        counter("netsim.events.total").inc(events)
        counter("netsim.events.arrival").inc(arrivals)
        counter("netsim.events.link_fault").inc(faults)
        counter("netsim.epoch.flushes").inc(run.epoch_flushes)
        counter("netsim.transfers.total").inc(arrivals)
        counter("netsim.controller.switches").inc(result.configuration_switches)
        counter("netsim.faults.transitions").inc(faults)
        counter("netsim.faults.recoveries").inc(result.recoveries)
        gauge = registry.gauge
        gauge("netsim.reconfiguration_energy_j").add(result.reconfiguration_energy_j)
        gauge("netsim.downtime_s").add(result.channel_downtime_s)
        gauge("netsim.recovery_time_s").add(result.recovery_time_s)
        registry.defer(
            lambda target: _publish_record_metrics(target, records, events, faults)
        )

    def _handle_link_fault(self, now_s, transition, run: _RunState) -> None:
        """Apply one health transition: availability accounting + escalation."""
        run.fault_transitions += 1
        channel = transition.channel
        health = self._failures.health(channel, now_s)
        was_down = channel in run.down_since
        if health.down and not was_down:
            run.down_since[channel] = now_s
        elif not health.down and was_down:
            started = run.down_since.pop(channel)
            duration = now_s - started
            run.downtime_s += duration
            run.recoveries += 1
            run.recovery_time_s += duration
        if (
            self._controller is not None
            and self._degradation is not None
            and health.ber_penalty_multiplier > 1.0
        ):
            # A ladder deployment implies a fault-management plane that
            # announces detected penalties; jump the controller straight to
            # the covering level instead of waiting for telemetry.
            self._controller.force_margin(channel, health.ber_penalty_multiplier, now_s)

    def _drop_on_arrival(self, request, now_s, run: _RunState) -> None:
        """Record a request refused at arrival (channel declared down)."""
        packets = packets_for_payload(request.payload_bits, self.packet_bits)
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
                packets_total=packets,
                packets_sent=0,
                packets_delivered=0,
                packets_dropped=packets,
                packets_with_residual_errors=0,
                residual_bit_errors=0,
                coded_bits_sent=0,
                energy_j=0.0,
            )
        )

    def _apply_attempt_health(self, state, health, action) -> None:
        """Set the attempt's raw BER (or dark-channel flag) from its health.

        ``health`` is the destination channel's health at the attempt's
        serialisation start: like dynamics, the attempt is corrupted at the
        conditions of its serialisation *start* — a blackout beginning
        between the channel request and the grant still eats the attempt.
        Without a ladder, lost wavelengths are still driven (the transmitter
        does not know): their share of the coded bits arrives as coin
        flips, so the effective raw BER blends the survivors' penalised BER
        with 0.5.  With a ladder, ``action`` already remapped (no
        dead-wavelength bits) and its derate divides the penalty (a halved
        rate buys a 2x raw-BER allowance from the energy-per-bit gain).
        """
        if health.down:
            state.attempt_blacked_out = True
            state.attempt_raw_ber = None
            return
        state.attempt_blacked_out = False
        state.attempt_raw_ber = self._attempt_raw_ber(state.design_raw_ber, health, action)

    def _attempt_raw_ber(self, design_raw_ber: float, health, action) -> float:
        """Raw BER of an attempt started on a channel that is up (see above)."""
        penalty = health.ber_penalty_multiplier
        if action is not None:
            raw = design_raw_ber * (penalty / action.derate_factor)
        else:
            raw = design_raw_ber * penalty
            lost = self.config.num_wavelengths - health.wavelengths_available
            if lost > 0:
                fraction = lost / self.config.num_wavelengths
                raw = fraction * 0.5 + (1.0 - fraction) * raw
        return min(1.0, raw)

    def _retry_delay_s(self, state) -> float:
        """Exponential backoff: doubles with every re-attempt already consumed."""
        previous = max(state.attempts - 1, 0) + state.deferrals
        return self.retry_backoff_s * (2.0 ** previous)

    def _defer_or_drop(self, state, now_s, health, run: _RunState) -> None:
        """A down channel under the ladder: wait out a blackout or give up."""
        if health.failed or not health.blacked_out:
            # Permanent outage (hard fail or all wavelengths gone): waiting
            # cannot help, drop what remains immediately.
            self._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
            return
        retry_at = now_s + self._retry_delay_s(state)
        if state.retries_left <= 0 or (
            state.deadline_s is not None and retry_at > state.deadline_s
        ):
            self._finalize_transfer(state, now_s, run, dropped=state.packets_remaining)
            return
        state.retries_left -= 1
        state.deferrals += 1
        run.queue.push(retry_at, EventKind.RETRY, state)

    def _finalize_transfer(self, state, now_s, run: _RunState, *, dropped: int) -> None:
        """Record a transfer's terminal state (delivered, exhausted or dropped).

        ``dropped`` is the number of packets that never made it: the last
        attempt's detected failures when ARQ gave up, or everything still
        pending when a fault dropped the transfer outright.  A transfer
        dropped before any attempt started reports its drop time as its
        first start.
        """
        request = state.request
        first_start = state.first_start_s if state.first_start_s >= 0.0 else now_s
        run.records.append(
            NetTransferRecord(
                source=request.source,
                destination=request.destination,
                payload_bits=request.payload_bits,
                code_name=state.link.code_name,
                arrival_time_s=request.arrival_time_s,
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

    def _feed_controller(self, now_s, state, outcome) -> None:
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
        observed = float(self._telemetry_rng.binomial(blocks, disturb))
        expected = blocks * state.link.design_disturb_probability
        self._controller.observe(
            state.request.destination,
            now_s,
            blocks=blocks,
            observed_events=observed + outcome.failed_detected,
            expected_events=expected,
        )
