"""Tests for the traffic generators and task sets."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.traffic import generators
from repro.traffic.generators import (
    BURSTINESS,
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TrafficRequest,
    UniformTrafficGenerator,
)
from repro.traffic.tasks import PeriodicTask, TaskSet


class TestTrafficRequest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficRequest(0.0, 1, 1, 64, 1e-9)
        with pytest.raises(ConfigurationError):
            TrafficRequest(0.0, 1, 0, 0, 1e-9)
        with pytest.raises(ConfigurationError):
            TrafficRequest(0.0, 1, 0, 64, 0.9)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_arrival_time_is_rejected(self, arrival):
        with pytest.raises(ConfigurationError, match="arrival time"):
            TrafficRequest(arrival, 1, 0, 64, 1e-9)

    def test_requests_are_slotted_and_frozen(self):
        request = next(UniformTrafficGenerator(12, seed=3).generate(1))
        assert not hasattr(request, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.source = 5

    @pytest.mark.parametrize("deadline_s", [None, 2.5e-3])
    def test_pickle_deepcopy_and_replace_round_trip(self, deadline_s, monkeypatch):
        # Frozen + slots pickling goes through the dataclass-provided
        # __getstate__/__setstate__, whose details differ across Python
        # versions; generated (trusted-path) requests must survive it too.
        monkeypatch.setattr(generators, "FRAME_DEADLINE_S", deadline_s)
        generated = next(BurstyTrafficGenerator(12, seed=4).generate(1))
        built = TrafficRequest(1.5e-6, 3, 7, 512, 1e-9, deadline_s)
        for request in (generated, built):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(request, protocol)) == request
            assert copy.deepcopy(request) == request
            assert copy.copy(request) == request
            moved = dataclasses.replace(request, destination=request.source + 1)
            assert moved.destination == request.source + 1
            assert dataclasses.replace(moved, destination=request.destination) == request
            with pytest.raises(ConfigurationError):
                dataclasses.replace(request, destination=request.source)


class TestGenerators:
    def test_uniform_generator_produces_the_requested_count(self, rng):
        generator = UniformTrafficGenerator(12, rng=rng)
        requests = list(generator.generate(50))
        assert len(requests) == 50

    def test_arrival_times_are_increasing(self, rng):
        generator = UniformTrafficGenerator(12, rng=rng)
        times = [r.arrival_time_s for r in generator.generate(100)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_uniform_destinations_never_equal_sources(self, rng):
        generator = UniformTrafficGenerator(12, rng=rng)
        assert all(r.source != r.destination for r in generator.generate(200))

    def test_mean_arrival_rate_is_respected(self, rng):
        generator = UniformTrafficGenerator(12, mean_request_rate_hz=1e6, rng=rng)
        requests = list(generator.generate(2000))
        duration = requests[-1].arrival_time_s - requests[0].arrival_time_s
        assert 2000 / duration == pytest.approx(1e6, rel=0.15)

    def test_hotspot_generator_concentrates_traffic(self, rng):
        generator = HotspotTrafficGenerator(12, hotspot=0, hotspot_fraction=0.7, rng=rng)
        requests = list(generator.generate(1000))
        to_hotspot = sum(1 for r in requests if r.destination == 0)
        assert to_hotspot / len(requests) > 0.5

    def test_bursty_generator_produces_variable_payloads_with_deadlines(self, rng):
        generator = BurstyTrafficGenerator(12, frame_bits=4096, rng=rng)
        requests = list(generator.generate(200))
        sizes = {r.payload_bits for r in requests}
        assert len(sizes) > 20
        assert all(r.deadline_s is not None for r in requests)

    @pytest.mark.parametrize(
        "factory", [UniformTrafficGenerator, HotspotTrafficGenerator, BurstyTrafficGenerator]
    )
    def test_seed_reproduces_the_request_stream(self, factory):
        first = list(factory(12, seed=42).generate(30))
        second = list(factory(12, seed=42).generate(30))
        assert first == second

    def test_seed_accepts_a_seed_sequence(self):
        sequence = np.random.SeedSequence(7, spawn_key=(3,))
        first = list(UniformTrafficGenerator(12, seed=sequence).generate(10))
        second = list(
            UniformTrafficGenerator(
                12, seed=np.random.SeedSequence(7, spawn_key=(3,))
            ).generate(10)
        )
        assert first == second

    def test_seed_and_rng_are_mutually_exclusive(self, rng):
        with pytest.raises(ConfigurationError):
            UniformTrafficGenerator(12, rng=rng, seed=1)

    def test_generator_validation(self):
        with pytest.raises(ConfigurationError):
            UniformTrafficGenerator(1)
        with pytest.raises(ConfigurationError):
            UniformTrafficGenerator(12, mean_request_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            HotspotTrafficGenerator(12, hotspot=20)
        generator = UniformTrafficGenerator(12)
        with pytest.raises(ConfigurationError):
            list(generator.generate(-1))

    @pytest.mark.parametrize(
        "factory", [UniformTrafficGenerator, HotspotTrafficGenerator, BurstyTrafficGenerator]
    )
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rate_is_rejected_up_front(self, factory, rate):
        with pytest.raises(ConfigurationError, match="request rate"):
            factory(12, mean_request_rate_hz=rate)

    @pytest.mark.parametrize(
        "factory", [UniformTrafficGenerator, HotspotTrafficGenerator, BurstyTrafficGenerator]
    )
    @pytest.mark.parametrize("target_ber", [0.0, 0.5, 0.9, -1e-9, float("nan")])
    def test_bad_target_ber_is_rejected_up_front(self, factory, target_ber):
        # Not at the first next(): generate() is lazy, so construction is
        # the only point where the caller's mistake can be named early.
        with pytest.raises(ConfigurationError, match="target BER"):
            factory(12, target_ber=target_ber)

    def test_uniform_stream_follows_the_documented_draw_order(self):
        # Validation happens before any draw, so a valid generator's stream
        # is the plain sequence of draws below: exponential gap, source,
        # destination among the other ONIs.
        requests = list(
            UniformTrafficGenerator(12, mean_request_rate_hz=2e6, seed=5).generate(40)
        )
        rng = np.random.default_rng(5)
        now = 0.0
        for request in requests:
            now += float(rng.exponential(1.0 / 2e6))
            source = int(rng.integers(0, 12))
            destination = int(rng.integers(0, 11))
            destination += destination >= source
            assert (request.arrival_time_s, request.source, request.destination) == (
                now,
                source,
                destination,
            )

    def test_hotspot_stream_follows_the_documented_draw_order(self):
        # Source first; the hotspot coin (a double) only when the source is
        # not the hotspot; the destination draw only when the coin misses.
        requests = list(
            HotspotTrafficGenerator(
                12, hotspot=4, hotspot_fraction=0.3, mean_request_rate_hz=2e6, seed=8
            ).generate(80)
        )
        rng = np.random.default_rng(8)
        now = 0.0
        for request in requests:
            now += float(rng.exponential(1.0 / 2e6))
            source = int(rng.integers(0, 12))
            if source != 4 and rng.random() < 0.3:
                destination = 4
            else:
                destination = int(rng.integers(0, 11))
                destination += destination >= source
            assert (request.arrival_time_s, request.source, request.destination) == (
                now,
                source,
                destination,
            )
        assert {request.source for request in requests} >= {4}
        assert 0 < sum(request.destination == 4 for request in requests) < 80

    def test_two_oni_uniform_stream_draws_no_destination(self):
        # integers(0, 1) is an empty range: NumPy returns 0 without drawing,
        # so a two-ONI ring consumes only the gap and the source per request.
        shared = np.random.default_rng(9)
        requests = list(UniformTrafficGenerator(2, rng=shared).generate(60))
        rng = np.random.default_rng(9)
        now = 0.0
        for request in requests:
            now += float(rng.exponential(1.0 / 1e6))
            source = int(rng.integers(0, 2))
            assert int(rng.integers(0, 1)) == 0
            assert (request.arrival_time_s, request.source, request.destination) == (
                now,
                source,
                1 - source,
            )
        assert shared.bit_generator.state == rng.bit_generator.state

    def test_bursty_stream_follows_the_documented_draw_order(self):
        requests = list(
            BurstyTrafficGenerator(12, frame_bits=4096, seed=6).generate(40)
        )
        rng = np.random.default_rng(6)
        now = 0.0
        for request in requests:
            now += float(rng.exponential(1.0 / 1e5))
            source = int(rng.integers(0, 12))
            destination = int(rng.integers(0, 11))
            destination += destination >= source
            payload = max(64, int(4096 * float(rng.gamma(shape=BURSTINESS, scale=1.0 / BURSTINESS))))
            assert (
                request.arrival_time_s,
                request.source,
                request.destination,
                request.payload_bits,
            ) == (now, source, destination, payload)


class TestPeriodicTasks:
    def test_release_times(self):
        task = PeriodicTask("t", 1, 0, period_s=1e-3, payload_bits=64, relative_deadline_s=1e-4)
        releases = task.releases_until(3.5e-3)
        assert releases == pytest.approx([0.0, 1e-3, 2e-3, 3e-3])

    def test_utilisation(self):
        # 1000 bits every millisecond on a 1 Gb/s channel: 1 us busy per 1 ms.
        task = PeriodicTask("t", 1, 0, period_s=1e-3, payload_bits=1000, relative_deadline_s=1e-4)
        assert task.utilisation(1e9) == pytest.approx(1e-3)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicTask("t", 1, 0, period_s=0.0, payload_bits=64, relative_deadline_s=1e-4)
        with pytest.raises(ConfigurationError):
            PeriodicTask("t", 1, 0, period_s=1e-3, payload_bits=64, relative_deadline_s=2e-3)
        with pytest.raises(ConfigurationError):
            PeriodicTask("t", 1, 1, period_s=1e-3, payload_bits=64, relative_deadline_s=1e-4)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"period_s": float("nan")},
            {"period_s": float("inf")},
            {"relative_deadline_s": float("nan")},
        ],
    )
    def test_non_finite_task_parameters_are_rejected(self, overrides):
        # NaN slips past ``x <= 0`` checks; a NaN period used to yield one
        # release and an infinite one a single never-repeating task.
        parameters = dict(period_s=1e-3, payload_bits=64, relative_deadline_s=1e-4)
        parameters.update(overrides)
        with pytest.raises(ConfigurationError):
            PeriodicTask("t", 1, 0, **parameters)

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_horizon_is_rejected(self, horizon):
        # An infinite horizon used to loop forever, a NaN one returned [].
        task = PeriodicTask("t", 1, 0, period_s=1e-3, payload_bits=64, relative_deadline_s=1e-4)
        with pytest.raises(ConfigurationError, match="horizon"):
            task.releases_until(horizon)

    def test_task_set_expands_requests_in_time_order(self):
        tasks = TaskSet(
            tasks=[
                PeriodicTask("a", 1, 0, period_s=2e-3, payload_bits=64, relative_deadline_s=1e-3),
                PeriodicTask("b", 2, 0, period_s=3e-3, payload_bits=64, relative_deadline_s=1e-3),
            ]
        )
        requests = tasks.requests_until(6e-3)
        times = [r.arrival_time_s for r in requests]
        assert times == sorted(times)
        assert len(requests) == 3 + 2

    def test_task_set_validation(self):
        with pytest.raises(ConfigurationError):
            TaskSet(tasks=[])
        duplicate = PeriodicTask("same", 1, 0, period_s=1e-3, payload_bits=64, relative_deadline_s=1e-4)
        with pytest.raises(ConfigurationError):
            TaskSet(tasks=[duplicate, duplicate])
