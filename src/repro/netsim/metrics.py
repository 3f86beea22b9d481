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
from itertools import repeat
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
        values = np.sort(np.asarray(samples, dtype=float))
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


#: The fields of :class:`~repro.netsim.engine.NetTransferRecord` in record
#: order (a test pins it), each with the dtype of its NumPy column, or
#: ``None`` for a field the reduction does not read.
_COLUMNS = (
    ("source", None),
    ("destination", None),
    ("payload_bits", np.int64),
    ("code_name", None),
    ("arrival_time_s", np.float64),
    ("first_start_time_s", None),
    ("completion_time_s", np.float64),
    ("attempts", np.int64),
    ("packets_total", np.int64),
    ("packets_sent", np.int64),
    ("packets_delivered", np.int64),
    ("packets_dropped", np.int64),
    ("packets_with_residual_errors", np.int64),
    ("residual_bit_errors", np.int64),
    ("coded_bits_sent", None),
    ("energy_j", np.float64),
    ("rejected", np.bool_),
)


def compute_metrics(result: NetworkResult) -> NetworkMetrics:
    """Reduce a finished run's transfer records to :class:`NetworkMetrics`.

    ``result.records`` is every :class:`~repro.netsim.engine.NetTransferRecord`
    of the run (rejected ones included); the first ``warmup_fraction`` of
    the completed transfers — in arrival order — are excluded from the
    latency summary but still count towards throughput, energy and packet
    totals.  Transfers dropped without a single attempt (a hard-down channel
    refused them on arrival) are likewise excluded from the latency summary:
    they have no meaningful completion time.

    The records are transposed once into NumPy columns.  The completed
    transfers are ordered by a stable ``lexsort`` on (arrival, completion),
    integer totals are exact ``int64`` sums, each record's delivered payload
    bits are ``rint(payload * delivered / total)`` (exact while the product
    stays below 2**53, which :data:`~repro.netsim.engine.MAX_PAYLOAD_BITS`
    guarantees for a run's records; ``rint`` rounds half to even like
    ``round``) and the energy is a sequential ``add.accumulate`` in that
    order: every figure is bit-identical to a left-to-right reduction over
    the sorted records.

    The result's hard-fault fields are the engine's availability accounting:
    ``fault_horizon_s`` is the observed simulation span the downtime is
    measured against (0 — no fault model — reports availability 1).
    """
    records = result.records
    num_channels = result.num_channels
    warmup_fraction = result.warmup_fraction
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warm-up fraction must lie in [0, 1)")
    (
        payloads,
        arrivals,
        completions,
        attempts,
        totals,
        sent,
        delivered,
        dropped,
        residual_packets,
        residual_bits,
        energies,
        rejected,
    ) = (
        np.array(column, dtype=dtype)
        for column, (_, dtype) in zip(zip(*records) if records else repeat(()), _COLUMNS)
        if dtype is not None
    )
    completed = np.flatnonzero(~rejected)
    completed = completed[np.lexsort((completions[completed], arrivals[completed]))]
    served = completed[attempts[completed] != 0]
    trimmed = int(len(served) * warmup_fraction)
    tail = served[trimmed:]
    latency = LatencySummary.from_samples(completions[tail] - arrivals[tail])

    sim_end = float(completions[np.argmax(completions)]) if records else 0.0
    offered = int(payloads.sum())
    totals = totals[completed]
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.rint(payloads[completed] * delivered[completed] / totals)
    delivered_bits = int(shares[totals != 0].astype(np.int64).sum())
    sent = sent[completed]
    dropped = dropped[completed]
    energy = np.add.accumulate(energies[completed])[-1] if len(completed) else 0.0
    utilization = {
        reader: (result.busy_s_by_reader.get(reader, 0.0) / sim_end if sim_end > 0 else 0.0)
        for reader in range(num_channels)
    }
    return NetworkMetrics(
        transfers_completed=len(completed),
        transfers_rejected=len(records) - len(completed),
        warmup_transfers_trimmed=trimmed,
        latency=latency,
        sim_end_time_s=sim_end,
        delivered_payload_bits=delivered_bits,
        offered_throughput_bits_per_s=(offered / sim_end if sim_end > 0 else 0.0),
        delivered_throughput_bits_per_s=(delivered_bits / sim_end if sim_end > 0 else 0.0),
        channel_utilization=utilization,
        total_energy_j=float(energy + result.reconfiguration_energy_j),
        packets_sent=int(sent.sum()),
        packets_delivered=int(delivered[completed].sum()),
        packets_dropped=int(dropped.sum()),
        packets_with_residual_errors=int(residual_packets[completed].sum()),
        residual_bit_errors=int(residual_bits[completed].sum()),
        configuration_switches=int(result.configuration_switches),
        reconfiguration_energy_j=float(result.reconfiguration_energy_j),
        packets_retried=int(np.maximum(sent - totals, 0).sum()),
        transfers_dropped=int(np.count_nonzero(dropped)),
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
