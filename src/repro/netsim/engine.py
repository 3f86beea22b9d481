"""Discrete-event simulation of the full MWSR ring under managed traffic.

This is the subsystem that joins the layers the repository previously only
evaluated in isolation: traffic generators produce requests, each request is
configured by the :class:`~repro.manager.manager.OpticalLinkManager` (policy
picks the ECC scheme and laser power for the requested BER), the coded
payload contends for its destination's MWSR channel through round-robin
token arbitration among the channel's writers, faults corrupt the packets
at the operating point's raw BER, and CRC-detected failures are
retransmitted (ARQ) until delivered or out of retries.

Event lifecycle of one transfer::

    ARRIVAL(t)                 request reaches its source ONI
      └─ manager.configure()   policy selects code + laser power
      └─ token arbitration     token + channel reservation on the reader's
                               channel (FIFO in event order)
      └─ sample packet outcomes (probabilistic or bit-exact)
      └─ schedule DEPARTURE at start + serialization time
    DEPARTURE(t')              attempt finishes serialising
      └─ commit the attempt's sampled outcome
      ├─ CRC-detected failures left and retries remain
      │    └─ token arbitration again → schedule next DEPARTURE (ARQ)
      └─ otherwise finalise the record, release the manager entry

Determinism: events are totally ordered by ``(time, insertion sequence)``
and every random draw — traffic aside — flows through two
``SeedSequence``-resolved generators in deterministic event order, so a
run is a pure function of its seed.  The *primary* stream pays each
attempt's fixed-size draw in attempt-schedule order; the *resolution*
stream (spawned from the primary seed) pays the data-dependent draws of
the rare failing attempts.  Splitting the streams this way is what lets
the epoch-batched event loop of :mod:`repro.netsim.epoch`, which
:meth:`NetworkSimulator.run` drives, concatenate many attempts' primary
draws into one vectorized call.  There is no wall-clock anywhere.

This module holds the simulator's configuration and validation, its
per-configuration caches (samplers, link constants, design raw BERs) and
the records and result a run produces.  Everything one run changes, with
the handlers that change it, lives in :mod:`repro.netsim.epoch`'s run
object.  The test suite keeps a plain per-event heap loop over the same
cold handlers (``tests/netsim/oracle.py``) and checks the batched loop
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
from ..link.design import OpticalLinkDesigner
from ..manager.manager import LinkConfiguration, OpticalLinkManager
from ..manager.policies import DegradationLadder, SelectionPolicy
from ..manager.runtime import AdaptiveEccController
from ..obs import tracing as obs_tracing
from ..simulation.faults import IndependentErrorModel
from ..traffic.generators import TrafficColumns, TrafficRequest
from .dynamics import ChannelDriftModel
from .failures import HardFaultModel
from .metrics import NetworkMetrics, compute_metrics
from .outcomes import (
    BitExactOutcomeSampler,
    ProbabilisticOutcomeSampler,
    bit_exact_error_sources,
)

__all__ = [
    "MAX_PAYLOAD_BITS",
    "NetTransferRecord",
    "NetworkResult",
    "NetworkSimulator",
    "check_settings",
]

#: Name of the per-packet CRC (see
#: :class:`~repro.coding.crc.CyclicRedundancyCheck`).  ``None`` would switch
#: detection off: with no CRC there is no ARQ, and every failed packet is
#: delivered carrying its residual errors.
PACKET_CRC: str | None = "crc16-ccitt"

#: Supported packet-outcome modes.
MODES = ("probabilistic", "bit-exact")

#: Largest payload one transfer may carry (bits); :meth:`NetworkSimulator.run`
#: refuses a larger one before its first event.  A failing attempt counts
#: its failed blocks per packet with ``np.bincount(..., minlength=packets)``,
#: one int64 per packet, and a packet holds at least one payload bit, so
#: this caps that array at 2**26 packets (512 MiB).  It also keeps
#: ``payload_bits * packets_delivered`` below 2**53, where
#: :func:`~repro.netsim.metrics.compute_metrics` is exact.  No shard of a
#: sweep grid reaches it: a grid's payloads are at most
#: :data:`repro.experiments.network.MAX_TRANSFER_BITS` = 2**20 nominal bits,
#: and a bursty frame (a gamma of shape 4 times the nominal size) is 64
#: times that with probability below 1e-100.
MAX_PAYLOAD_BITS = 1 << 26


class NetTransferRecord(NamedTuple):
    """End-to-end outcome of one traffic request.

    A ``NamedTuple`` rather than a frozen dataclass: the event loop
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
        return compute_metrics(self)

    @property
    def packets_sent(self) -> int:
        """Total packet transmissions of the run (ARQ retries included)."""
        return sum(record.packets_sent for record in self.records)


class _LinkConstants(NamedTuple):
    """Per-configuration constants of a transfer, resolved once.

    Each sits behind a property chain or a cached method of the
    configuration or its sampler (``channel_power_w`` alone walks three
    properties and a three-term sum), so the event loop resolves them once
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
    """Mutable bookkeeping of one in-flight transfer.

    The request fields a transfer reads after its arrival are copied in, so
    a run fed columns builds no request object for it.
    """

    source: int
    destination: int
    payload_bits: int
    arrival_time_s: float
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
    #: *scheduled* and committed when its DEPARTURE pops: the resolved
    #: :class:`~repro.netsim.outcomes.TransmissionOutcome`, or ``None`` while
    #: the attempt's gate waits in the flush queue for the epoch's
    #: vectorized draw (and after a clean gate).
    pending_outcome: object = field(default=None, init=False)


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
    def run(self, requests: TrafficColumns | Iterable[TrafficRequest]) -> NetworkResult:
        """Simulate a finite request sequence to completion.

        ``requests`` is the :class:`~repro.traffic.generators.TrafficColumns`
        of a generator's ``columns`` draw, or any iterable of
        :class:`~repro.traffic.generators.TrafficRequest` (read into the same
        columns).  A payload above :data:`MAX_PAYLOAD_BITS`, like a negative
        or NaN arrival time, is a :class:`ConfigurationError` before the
        first event.

        The events drain through the epoch-batched loop of one run object
        of :mod:`repro.netsim.epoch`.  The cyclic garbage collector is paused
        for the run.  A run allocates hundreds of thousands of tracked
        containers (records, heap entries, transfer states) but creates no
        reference cycles, so every collection it would trigger walks them
        all and frees nothing, while reference counting frees the same
        memory with the collector on or off.  The previous state is
        restored on the way out, crash or not; a collector the caller
        already disabled stays disabled.  The pause is process-wide, like
        the collector; ``tests/netsim/test_engine.py`` guards the no-cycle
        invariant.
        """
        from .epoch import _Run

        collecting = gc.isenabled()
        gc.disable()
        try:
            tracer = obs_tracing.ACTIVE
            if tracer is None:
                return _Run(self).drain(requests)
            with tracer.span("netsim.run", mode=self.mode):
                return _Run(self).drain(requests)
        finally:
            if collecting:
                gc.enable()
