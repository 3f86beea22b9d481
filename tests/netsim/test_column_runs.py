"""Runs fed traffic columns equal runs fed request objects, and the oracle.

:meth:`NetworkSimulator.run <repro.netsim.engine.NetworkSimulator.run>`
takes a generator's :class:`~repro.traffic.generators.TrafficColumns` or
any iterable of :class:`~repro.traffic.generators.TrafficRequest`, and
reads both into the same arrival events.  On the static, adaptive and faulted
legs, with uniform, hotspot and bursty traffic, the columns' run must equal
the run of ``list(generate())`` from an identical generator and the
per-event oracle's run, byte for byte.  The sweep grids feed columns and
build no request object at all.  A payload above ``MAX_PAYLOAD_BITS`` is
refused before the first event.
"""

from __future__ import annotations

import pytest
from oracle import network_simulator, run_reference
from test_engine_parity import assert_identical

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments.network import MAX_TRANSFER_BITS
from repro.experiments.orchestrator import run_experiment
from repro.manager.policies import DegradationLadder, margin_levels
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import MAX_PAYLOAD_BITS, NetworkSimulator, make_drift_model, make_fault_model
from repro.traffic import generators
from repro.traffic.generators import (
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TrafficColumns,
    TrafficRequest,
    UniformTrafficGenerator,
)

NUM_ONIS = DEFAULT_CONFIG.num_onis
NW = DEFAULT_CONFIG.num_wavelengths
LEGS = ("static", "adaptive", "faulted")


def make_generator(pattern: str, seed: int):
    if pattern == "uniform":
        return UniformTrafficGenerator(NUM_ONIS, mean_request_rate_hz=5e8, seed=seed)
    if pattern == "hotspot":
        return HotspotTrafficGenerator(NUM_ONIS, mean_request_rate_hz=5e8, seed=seed)
    return BurstyTrafficGenerator(
        NUM_ONIS, mean_request_rate_hz=5e7, frame_bits=4096, seed=seed
    )


def make_simulator(leg: str, horizon_s: float) -> NetworkSimulator:
    """A fresh simulator of one leg; every model is rebuilt from fixed seeds."""
    kwargs = {}
    if leg == "adaptive":
        kwargs["dynamics"] = make_drift_model("thermal", NUM_ONIS, seed=17)
        kwargs["controller"] = AdaptiveEccController(margins=margin_levels(4.0), mode="adaptive")
        kwargs["telemetry_seed"] = 99
    elif leg == "faulted":
        kwargs["failures"] = make_fault_model(
            "blackout", NUM_ONIS, NW, seed=5, horizon_s=horizon_s
        )
        kwargs["degradation"] = DegradationLadder(margins=margin_levels(4.0), num_wavelengths=NW)
        kwargs["retry_backoff_s"] = horizon_s / 100
        kwargs["transfer_timeout_s"] = horizon_s / 10
    return network_simulator(seed=11, **kwargs)


@pytest.mark.parametrize("pattern", ["uniform", "hotspot", "bursty"])
@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("seed", [1, 2])
def test_columns_run_like_objects_and_the_oracle(leg, pattern, seed):
    columns = make_generator(pattern, seed).columns(250)
    requests = list(make_generator(pattern, seed).generate(250))
    horizon_s = columns.arrival_times_s[-1]
    by_columns = make_simulator(leg, horizon_s).run(columns)
    by_objects = make_simulator(leg, horizon_s).run(requests)
    reference = run_reference(make_simulator(leg, horizon_s), requests)
    assert_identical(by_objects, by_columns)
    assert_identical(reference, by_columns)
    if leg == "faulted":
        assert by_columns.fault_transitions > 0


def test_a_payload_column_runs_per_request():
    # Hand-built columns: one payload per request, shared target BER.
    columns = TrafficColumns(
        [1e-9, 2e-9, 3e-9], [0, 1, 2], [1, 2, 0], [512, 4096, 700], 1e-9, None
    )
    requests = [
        TrafficRequest(arrival, source, destination, payload, 1e-9)
        for arrival, source, destination, payload in zip(*columns[:4])
    ]
    assert_identical(
        NetworkSimulator(seed=3).run(requests), NetworkSimulator(seed=3).run(columns)
    )


def test_columns_of_different_lengths_are_refused():
    columns = TrafficColumns([1e-9, 2e-9], [0, 1], [1], 512, 1e-9, None)
    with pytest.raises(ConfigurationError, match="one entry per request"):
        NetworkSimulator(seed=3).run(columns)


class TestTransferSizeCap:
    """A payload the failure resolution cannot count is refused up front."""

    @pytest.mark.parametrize("payload_bits", [int(1.35e16), 10**300, MAX_PAYLOAD_BITS + 1])
    def test_an_oversized_payload_is_refused_before_the_first_event(self, payload_bits):
        requests = [
            TrafficRequest(1e-9, 0, 1, 512, 1e-9),
            TrafficRequest(2e-9, 2, 3, payload_bits, 1e-9),
        ]
        with pytest.raises(ConfigurationError, match="payload bits"):
            NetworkSimulator(seed=1).run(requests)
        columns = TrafficColumns([1e-9, 2e-9], [0, 2], [1, 3], [512, payload_bits], 1e-9, None)
        with pytest.raises(ConfigurationError, match="payload bits"):
            NetworkSimulator(seed=1).run(columns)

    def test_the_largest_payload_runs(self):
        result = NetworkSimulator(seed=1).run([TrafficRequest(0.0, 0, 1, MAX_PAYLOAD_BITS, 1e-9)])
        (record,) = result.records
        assert record.payload_bits == MAX_PAYLOAD_BITS
        assert record.packets_total == MAX_PAYLOAD_BITS // 512

    def test_no_grid_transfer_reaches_the_cap(self):
        # A bursty frame 64 times the largest nominal grid payload is still
        # inside the cap, even at one-bit packets.
        assert 64 * MAX_TRANSFER_BITS <= MAX_PAYLOAD_BITS


def test_the_sweep_grids_build_no_request_object(monkeypatch):
    built = []
    new_object = generators._new_object
    init = TrafficRequest.__init__

    def counting_new(cls):
        built.append(cls)
        return new_object(cls)

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(generators, "_new_object", counting_new)
    monkeypatch.setattr(TrafficRequest, "__init__", counting_init)
    for name in ("network", "adaptive", "availability"):
        _, rows = run_experiment(name, options={"num_requests": 200})
        assert rows
    assert built == []
    # The counters do see the object path.
    list(UniformTrafficGenerator(NUM_ONIS, seed=1).generate(3))
    TrafficRequest(0.0, 0, 1, 512, 1e-9)
    assert len(built) == 4
