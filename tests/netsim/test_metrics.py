"""Tests for the netsim statistics layer (percentiles, warm-up, throughput)."""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np
import pytest
from oracle import delivered_payload_bits

from repro.exceptions import ConfigurationError
from repro.netsim.engine import NetTransferRecord, NetworkResult
from repro.netsim import metrics as metrics_module
from repro.netsim.metrics import (
    LatencySummary,
    compute_metrics,
    nearest_rank_percentile,
)


def _record(arrival: float, completion: float, **overrides) -> NetTransferRecord:
    defaults = dict(
        source=1,
        destination=0,
        payload_bits=512,
        code_name="H(71,64)",
        arrival_time_s=arrival,
        first_start_time_s=arrival,
        completion_time_s=completion,
        attempts=1,
        packets_total=1,
        packets_sent=1,
        packets_delivered=1,
        packets_dropped=0,
        packets_with_residual_errors=0,
        residual_bit_errors=0,
        coded_bits_sent=568,
        energy_j=1e-9,
        rejected=False,
    )
    defaults.update(overrides)
    return NetTransferRecord(**defaults)


def _metrics(records, *, busy_s_by_reader=None, num_channels=1, warmup_fraction=0.0):
    """The metrics of a fault-free, controller-free run that produced ``records``."""
    return compute_metrics(
        NetworkResult(
            records=records,
            busy_s_by_reader=busy_s_by_reader or {},
            num_channels=num_channels,
            warmup_fraction=warmup_fraction,
            events_processed=0,
        )
    )


class TestNearestRankPercentile:
    def test_known_values(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert nearest_rank_percentile(samples, 50.0) == 5.0
        assert nearest_rank_percentile(samples, 95.0) == 10.0
        assert nearest_rank_percentile(samples, 100.0) == 10.0
        assert nearest_rank_percentile(samples, 10.0) == 1.0

    def test_empty_vector_gives_zero(self):
        assert nearest_rank_percentile(np.array([]), 50.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        samples = np.array([7.25])
        for percentile in (1e-9, 1.0, 50.0, 99.0, 100.0):
            assert nearest_rank_percentile(samples, percentile) == 7.25

    def test_p100_is_the_maximum(self):
        samples = np.array([1.0, 2.0, 3.0])
        assert nearest_rank_percentile(samples, 100.0) == 3.0

    @pytest.mark.parametrize("percentile", [0.0, -1.0, -50.0, 100.0001, 101.0, 1000.0])
    def test_out_of_range_rejected(self, percentile):
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile(np.array([1.0]), percentile)

    def test_tiny_percentile_hits_first_sample_without_clamping(self):
        # rank = ceil(p/100 * N) is already >= 1 for every valid p; the old
        # max(rank, 1) clamp only ever masked the invalid p = 0 case.
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        assert nearest_rank_percentile(samples, 0.001) == 1.0


class TestLatencySummary:
    def test_summary_matches_numpy(self):
        samples = [3.0, 1.0, 2.0, 4.0]
        summary = LatencySummary.from_samples(samples)
        assert summary.count == 4
        assert summary.mean_s == pytest.approx(2.5)
        assert summary.min_s == 1.0
        assert summary.max_s == 4.0
        assert summary.p50_s == 2.0

    def test_empty_summary_is_all_zero(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean_s == 0.0


class TestComputeMetrics:
    def test_warmup_trims_in_arrival_order(self):
        # Records appended out of arrival order; the first (by arrival) 20%
        # must be excluded from the latency summary.
        records = [_record(arrival=float(i), completion=float(i) + (i + 1)) for i in range(10)]
        records.reverse()
        metrics = _metrics(records, num_channels=12, warmup_fraction=0.2)
        assert metrics.warmup_transfers_trimmed == 2
        assert metrics.latency.count == 8
        # Trimmed records are the arrival-earliest ones (latencies 1 and 2).
        assert metrics.latency.min_s == 3.0

    def test_throughput_and_utilization(self):
        records = [_record(0.0, 1.0), _record(0.5, 2.0)]
        metrics = _metrics(records, busy_s_by_reader={0: 1.0}, num_channels=2)
        assert metrics.sim_end_time_s == 2.0
        assert metrics.offered_throughput_bits_per_s == pytest.approx(512.0)
        assert metrics.channel_utilization[0] == pytest.approx(0.5)
        assert metrics.channel_utilization[1] == 0.0
        assert metrics.mean_channel_utilization == pytest.approx(0.25)
        assert metrics.peak_channel_utilization == pytest.approx(0.5)

    def test_rejected_records_count_as_offered_but_not_delivered(self):
        records = [
            _record(0.0, 1.0),
            _record(0.0, 0.0, rejected=True, packets_sent=0, packets_delivered=0, energy_j=0.0),
        ]
        metrics = _metrics(records)
        assert metrics.transfers_completed == 1
        assert metrics.transfers_rejected == 1
        assert metrics.offered_throughput_bits_per_s == pytest.approx(1024.0)
        assert metrics.delivered_payload_bits == 512

    def test_partial_delivery_scales_payload_bits(self):
        record = _record(0.0, 1.0, packets_total=4, packets_delivered=3, packets_dropped=1)
        assert _metrics([record]).delivered_payload_bits == 384

    def test_error_rates(self):
        records = [
            _record(
                0.0,
                1.0,
                packets_sent=12,
                packets_total=10,
                packets_delivered=10,
                packets_with_residual_errors=2,
                residual_bit_errors=5,
            )
        ]
        metrics = _metrics(records)
        assert metrics.delivered_packet_error_rate == pytest.approx(0.2)
        assert metrics.retransmission_rate == pytest.approx(2 / 12)
        assert metrics.delivered_bit_error_rate == pytest.approx(5 / 512)

    def test_columns_follow_the_record_layout(self):
        # compute_metrics reads NetTransferRecord fields by position; every
        # column must sit at the position of the field it names.
        assert tuple(name for name, _ in metrics_module._COLUMNS) == NetTransferRecord._fields

    def test_reductions_match_per_record_sums(self):
        rng = np.random.default_rng(5)
        records = []
        for index in range(200):
            total = int(rng.integers(1, 6))
            sent = total + int(rng.integers(-1, 3))
            dropped = int(rng.integers(0, 2))
            records.append(
                _record(
                    arrival=float(rng.random()),
                    completion=float(rng.random()) + 1.0,
                    attempts=int(rng.integers(0, 3)),
                    packets_total=total,
                    packets_sent=sent,
                    packets_delivered=total - dropped,
                    packets_dropped=dropped,
                    energy_j=float(rng.random()) * 1e-9,
                    rejected=bool(index % 17 == 0),
                )
            )
        metrics = _metrics(records, warmup_fraction=0.1)
        completed = sorted(
            (r for r in records if not r.rejected),
            key=lambda r: (r.arrival_time_s, r.completion_time_s),
        )
        served = [r for r in completed if r.attempts > 0]
        trimmed = int(len(served) * 0.1)
        expected_latency = LatencySummary.from_samples([r.latency_s for r in served[trimmed:]])
        assert metrics.latency == expected_latency
        assert metrics.transfers_rejected == sum(1 for r in records if r.rejected)
        # Left to right, in arrival order (3.12's compensated sum is not).
        assert metrics.total_energy_j == reduce(add, (r.energy_j for r in completed), 0)
        assert metrics.delivered_payload_bits == sum(map(delivered_payload_bits, completed))
        assert metrics.packets_retried == sum(
            max(0, r.packets_sent - r.packets_total) for r in completed
        )
        assert metrics.transfers_dropped == sum(1 for r in completed if r.packets_dropped > 0)
        assert type(metrics.transfers_rejected) is int

    def test_bad_warmup_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            _metrics([], warmup_fraction=1.0)
