"""The NumPy metrics reduction equals the per-record one, bit for bit.

:func:`repro.netsim.metrics.compute_metrics` transposes the records into
NumPy columns once; :func:`oracle.compute_metrics_reference` is the
reduction it replaced (getters mapped over the records, ``sorted``, Python
integer sums and a left-to-right float sum).  Hypothesis draws record sets
with tied arrival and completion times, rejected, dropped and
partially delivered transfers and energies of mixed magnitude (so a
different summation order shows), and every figure must be equal down to
its type and its float bits.  The same holds for the results of real runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracle import compute_metrics_reference
from test_column_runs import LEGS, make_generator, make_simulator

from repro.netsim import MAX_PAYLOAD_BITS
from repro.netsim.engine import NetTransferRecord, NetworkResult
from repro.netsim.metrics import compute_metrics

#: A few shared instants, so arrivals and completions tie often.
_INSTANTS = (0.0, 1e-9, 2.5e-9, 1e-6, 3.0)
_times = st.one_of(st.sampled_from(_INSTANTS), st.floats(0.0, 10.0, allow_nan=False))
_energies = st.one_of(
    st.just(0.0),
    st.floats(1e-15, 1e-6, allow_nan=False),
    st.floats(1.0, 1e6, allow_nan=False),
)


@st.composite
def records(draw) -> NetTransferRecord:
    """One transfer record: served, rejected, dropped or partially delivered."""
    kind = draw(st.sampled_from(["served", "rejected", "refused", "partial"]))
    large = draw(st.booleans())
    packets = draw(st.integers(1, MAX_PAYLOAD_BITS if large else 20))
    payload = draw(st.integers(packets, MAX_PAYLOAD_BITS))
    arrival = draw(_times)
    completion = arrival + draw(_times)
    attempts = draw(st.integers(1, 5))
    delivered = packets
    if kind == "rejected":
        packets = delivered = attempts = 0
    elif kind == "refused":
        delivered = attempts = 0
    elif kind == "partial":
        delivered = draw(st.integers(0, packets))
    return NetTransferRecord(
        source=draw(st.integers(0, 11)),
        destination=draw(st.integers(0, 11)),
        payload_bits=payload,
        code_name=None if kind == "rejected" else "H(71,64)",
        arrival_time_s=arrival,
        first_start_time_s=arrival,
        completion_time_s=completion if attempts else arrival,
        attempts=attempts,
        packets_total=packets,
        packets_sent=draw(st.integers(0, 5 * packets)) if attempts else 0,
        packets_delivered=delivered,
        packets_dropped=packets - delivered,
        packets_with_residual_errors=draw(st.integers(0, delivered)),
        residual_bit_errors=draw(st.integers(0, 10**6)),
        coded_bits_sent=draw(st.integers(0, 10**9)),
        energy_j=0.0 if kind in ("rejected", "refused") else draw(_energies),
        rejected=kind == "rejected",
    )


@st.composite
def results(draw) -> NetworkResult:
    num_channels = draw(st.integers(1, 12))
    recoveries = draw(st.integers(0, 5))
    return NetworkResult(
        records=draw(st.lists(records(), max_size=60)),
        busy_s_by_reader=draw(
            st.dictionaries(st.integers(0, num_channels - 1), st.floats(0.0, 5.0), max_size=4)
        ),
        num_channels=num_channels,
        warmup_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 0.99])),
        events_processed=0,
        configuration_switches=draw(st.integers(0, 9)),
        reconfiguration_energy_j=draw(_energies),
        channel_downtime_s=draw(st.floats(0.0, 5.0)),
        fault_transitions=draw(st.integers(0, 9)),
        recoveries=recoveries,
        recovery_time_s=draw(st.floats(0.0, 5.0)) if recoveries else 0.0,
        fault_horizon_s=draw(st.sampled_from([0.0, 1e-6, 10.0])),
    )


def exact(metrics) -> dict:
    """Every figure of ``metrics`` as (type, repr): floats compare by their bits."""
    figures = {**metrics.as_dict(), **metrics.latency.as_dict()}
    figures["channel_utilization"] = metrics.channel_utilization
    figures["delivered_payload_bits"] = metrics.delivered_payload_bits
    return {name: (type(value), repr(value)) for name, value in figures.items()}


def assert_bit_identical(result: NetworkResult) -> None:
    actual = compute_metrics(result)
    expected = compute_metrics_reference(result)
    assert actual == expected
    assert exact(actual) == exact(expected)


@given(result=results())
@settings(max_examples=300, deadline=None)
def test_numpy_reduction_equals_the_per_record_one(result):
    assert_bit_identical(result)


def test_half_shares_round_to_even():
    # 5/2, 7/2 and 9/2 delivered bits: round() takes the even neighbour.
    shares = [
        NetTransferRecord(0, 1, payload, "H(71,64)", 0.0, 0.0, 1.0, 1, 2, 2, 1, 1, 0, 0, 0, 0.0)
        for payload in (5, 7, 9)
    ]
    result = NetworkResult(
        records=shares,
        busy_s_by_reader={},
        num_channels=2,
        warmup_fraction=0.0,
        events_processed=0,
    )
    assert compute_metrics(result).delivered_payload_bits == 2 + 4 + 4
    assert_bit_identical(result)


def test_an_empty_run_reduces_to_zeros():
    result = NetworkResult(
        records=[],
        busy_s_by_reader={},
        num_channels=3,
        warmup_fraction=0.1,
        events_processed=0,
    )
    assert_bit_identical(result)


@pytest.mark.parametrize("pattern", ["uniform", "bursty"])
@pytest.mark.parametrize("leg", LEGS)
def test_real_runs_reduce_alike(leg, pattern):
    columns = make_generator(pattern, 3).columns(300)
    result = make_simulator(leg, columns.arrival_times_s[-1]).run(columns)
    assert_bit_identical(result)
