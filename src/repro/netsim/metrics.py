"""Aggregate statistics of a network simulation run.

The engine records one :class:`~repro.netsim.engine.NetTransferRecord` per
transfer; this module reduces those records to the numbers a load sweep
plots: latency percentiles with warm-up trimming, per-channel utilisation,
offered vs delivered throughput, energy per delivered bit and the
packet-level error/retransmission accounting.  Everything returned is a
plain Python scalar so the results serialise straight into the sweep
orchestrator's JSON payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse, repeat
from operator import attrgetter, itemgetter, sub
from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from ..exceptions import ConfigurationError

if TYPE_CHECKING:
    from .engine import NetworkResult

__all__ = [
    "LatencySummary",
    "NetworkMetrics",
    "nearest_rank_percentile",
    "compute_metrics",
]


def nearest_rank_percentile(sorted_samples: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of an ascending sample vector.

    Deterministic and interpolation-free, so serial and sharded sweeps
    report byte-identical values.  The nearest-rank definition
    ``rank = ceil(p/100 * N)`` is undefined at ``p = 0`` (rank 0), so the
    percentile must lie in ``(0, 100]``; out-of-range arguments raise
    instead of silently clamping to the minimum sample.
    """
    if not 0.0 < percentile <= 100.0:
        raise ConfigurationError("percentile must lie in (0, 100]")
    if sorted_samples.size == 0:
        return 0.0
    rank = int(np.ceil(percentile / 100.0 * sorted_samples.size))
    return float(sorted_samples[rank - 1])


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution of the post-warm-up transfers."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    min_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        """Summarise a latency sample vector (empty vectors give zeros)."""
        values = np.sort(np.asarray(list(samples), dtype=float))
        if values.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=int(values.size),
            mean_s=float(values.mean()),
            p50_s=nearest_rank_percentile(values, 50.0),
            p95_s=nearest_rank_percentile(values, 95.0),
            p99_s=nearest_rank_percentile(values, 99.0),
            min_s=float(values[0]),
            max_s=float(values[-1]),
        )

    def as_dict(self) -> dict:
        """Plain-scalar view for JSON payloads."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }


@dataclass(frozen=True)
class NetworkMetrics:
    """Network-level figures of one simulation run."""

    transfers_completed: int
    transfers_rejected: int
    warmup_transfers_trimmed: int
    latency: LatencySummary
    sim_end_time_s: float
    delivered_payload_bits: int
    offered_throughput_bits_per_s: float
    delivered_throughput_bits_per_s: float
    channel_utilization: Dict[int, float]
    total_energy_j: float
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    packets_with_residual_errors: int
    residual_bit_errors: int
    #: Online-control accounting: configuration switches performed by the
    #: adaptive controller and the reconfiguration energy they charged.
    #: ``total_energy_j`` already includes the reconfiguration energy.
    configuration_switches: int = 0
    reconfiguration_energy_j: float = 0.0
    #: Hard-fault accounting (all zero / one without a fault model):
    #: ARQ retransmissions, transfers that dropped packets, channel-seconds
    #: spent hard-down, the resulting availability fraction, health
    #: transitions, completed down->up recoveries and their mean duration.
    packets_retried: int = 0
    transfers_dropped: int = 0
    channel_downtime_s: float = 0.0
    availability: float = 1.0
    fault_transitions: int = 0
    recoveries: int = 0
    mean_time_to_recover_s: float = 0.0

    @property
    def mean_channel_utilization(self) -> float:
        """Average busy fraction over every channel of the ring."""
        if not self.channel_utilization:
            return 0.0
        return sum(self.channel_utilization.values()) / len(self.channel_utilization)

    @property
    def peak_channel_utilization(self) -> float:
        """Busy fraction of the most loaded channel (the hotspot's reader)."""
        if not self.channel_utilization:
            return 0.0
        return max(self.channel_utilization.values())

    @property
    def energy_per_delivered_bit_j(self) -> float:
        """Channel energy per delivered payload bit."""
        if self.delivered_payload_bits == 0:
            return 0.0
        return self.total_energy_j / self.delivered_payload_bits

    @property
    def retransmission_rate(self) -> float:
        """Fraction of packet transmissions that were ARQ retries."""
        if self.packets_sent == 0:
            return 0.0
        first_attempts = self.packets_delivered + self.packets_dropped
        return max(0, self.packets_sent - first_attempts) / self.packets_sent

    @property
    def delivered_packet_error_rate(self) -> float:
        """Fraction of delivered packets still carrying residual errors.

        These are also the CRC escapes, the undetected-corrupt deliveries:
        the CRC passed (or was disabled) while residual bit errors remained,
        so ARQ never fired.  :meth:`as_dict` reports the figure under both
        names.
        """
        if self.packets_delivered == 0:
            return 0.0
        return self.packets_with_residual_errors / self.packets_delivered

    @property
    def delivered_bit_error_rate(self) -> float:
        """Residual payload-bit error rate over everything delivered."""
        if self.delivered_payload_bits == 0:
            return 0.0
        return self.residual_bit_errors / self.delivered_payload_bits

    @property
    def packet_drop_rate(self) -> float:
        """Fraction of unique packets that were ultimately dropped."""
        unique = self.packets_delivered + self.packets_dropped
        if unique == 0:
            return 0.0
        return self.packets_dropped / unique

    def as_dict(self) -> dict:
        """Flat plain-scalar dictionary (JSON/CSV friendly)."""
        return {
            "transfers_completed": self.transfers_completed,
            "transfers_rejected": self.transfers_rejected,
            "warmup_transfers_trimmed": self.warmup_transfers_trimmed,
            "latency_mean_s": self.latency.mean_s,
            "latency_p50_s": self.latency.p50_s,
            "latency_p95_s": self.latency.p95_s,
            "latency_p99_s": self.latency.p99_s,
            "sim_end_time_s": self.sim_end_time_s,
            "offered_gbps": self.offered_throughput_bits_per_s / 1e9,
            "delivered_gbps": self.delivered_throughput_bits_per_s / 1e9,
            "mean_utilization": self.mean_channel_utilization,
            "peak_utilization": self.peak_channel_utilization,
            "energy_per_bit_pj": self.energy_per_delivered_bit_j * 1e12,
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "retransmission_rate": self.retransmission_rate,
            "delivered_packet_error_rate": self.delivered_packet_error_rate,
            "delivered_bit_error_rate": self.delivered_bit_error_rate,
            "configuration_switches": self.configuration_switches,
            "reconfiguration_energy_j": self.reconfiguration_energy_j,
            "total_energy_j": self.total_energy_j,
            "packets_retried": self.packets_retried,
            "transfers_dropped": self.transfers_dropped,
            "packet_drop_rate": self.packet_drop_rate,
            "undetected_corrupt_packets": self.packets_with_residual_errors,
            "crc_escape_rate": self.delivered_packet_error_rate,
            "availability": self.availability,
            "channel_downtime_s": self.channel_downtime_s,
            "fault_transitions": self.fault_transitions,
            "recoveries": self.recoveries,
            "mean_time_to_recover_s": self.mean_time_to_recover_s,
        }


# Field getters of :class:`~repro.netsim.engine.NetTransferRecord` (a
# NamedTuple, so positional ``itemgetter`` is its cheapest accessor): the
# reductions below map them over the records at C speed.  The positions
# follow the record's field order, which a test pins.
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
_DELIVERED_PAYLOAD_BITS = attrgetter("delivered_payload_bits")


def compute_metrics(result: NetworkResult) -> NetworkMetrics:
    """Reduce a finished run's transfer records to :class:`NetworkMetrics`.

    ``result.records`` is every :class:`~repro.netsim.engine.NetTransferRecord`
    of the run (rejected ones included); the first ``warmup_fraction`` of
    the completed transfers — in arrival order — are excluded from the
    latency summary but still count towards throughput, energy and packet
    totals.  Transfers dropped without a single attempt (a hard-down channel
    refused them on arrival) are likewise excluded from the latency summary:
    they have no meaningful completion time.

    The result's hard-fault fields are the engine's availability accounting:
    ``fault_horizon_s`` is the observed simulation span the downtime is
    measured against (0 — no fault model — reports availability 1).
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
    delivered = sum(map(_DELIVERED_PAYLOAD_BITS, completed))
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
        total_energy_j=float(sum(map(_ENERGY, completed)) + result.reconfiguration_energy_j),
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
