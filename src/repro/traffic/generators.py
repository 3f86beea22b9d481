"""Stochastic traffic generators.

Each generator yields :class:`TrafficRequest` objects (source, destination,
payload size, arrival time, BER requirement) that the manager/runtime
simulation can consume directly.  Arrival processes are Poisson with a
configurable mean rate; destinations follow the generator's spatial pattern.

Every generator accepts the shared seeding vocabulary: pass either a
ready-made ``rng`` or a ``seed`` (int or :class:`numpy.random.SeedSequence`,
resolved through :func:`repro.coding.montecarlo.resolve_rng`), so sharded
network sweeps can rebuild a generator's stream from its grid position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..coding.montecarlo import resolve_rng
from ..exceptions import ConfigurationError

__all__ = [
    "TrafficRequest",
    "UniformTrafficGenerator",
    "HotspotTrafficGenerator",
    "BurstyTrafficGenerator",
]


@dataclass(frozen=True)
class TrafficRequest:
    """A single communication request emitted by a traffic generator."""

    arrival_time_s: float
    source: int
    destination: int
    payload_bits: int
    target_ber: float
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time_s):
            raise ConfigurationError("arrival time must be finite")
        if self.source == self.destination:
            raise ConfigurationError("source and destination must differ")
        if self.payload_bits <= 0:
            raise ConfigurationError("payload must contain at least one bit")
        if not 0.0 < self.target_ber < 0.5:
            raise ConfigurationError("target BER must lie in (0, 0.5)")


class _BaseGenerator:
    """Shared plumbing of the stochastic generators."""

    def __init__(
        self,
        num_onis: int,
        *,
        mean_request_rate_hz: float,
        payload_bits: int,
        target_ber: float,
        rng: np.random.Generator | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if num_onis < 2:
            raise ConfigurationError("traffic needs at least two ONIs")
        if not (math.isfinite(mean_request_rate_hz) and mean_request_rate_hz > 0):
            raise ConfigurationError("request rate must be positive and finite")
        if payload_bits <= 0:
            raise ConfigurationError("payload size must be positive")
        if not 0.0 < target_ber < 0.5:
            raise ConfigurationError("target BER must lie in (0, 0.5)")
        self._num_onis = num_onis
        self._rate = mean_request_rate_hz
        self._payload_bits = payload_bits
        self._target_ber = target_ber
        self._rng = resolve_rng(rng, seed)

    def _next_arrival(self, now_s: float) -> float:
        return now_s + float(self._rng.exponential(1.0 / self._rate))

    def _pick_destination(self, source: int) -> int:
        raise NotImplementedError

    def _payload(self) -> int:
        return self._payload_bits

    def _deadline(self) -> float | None:
        return None

    def generate(self, num_requests: int, *, start_time_s: float = 0.0) -> Iterator[TrafficRequest]:
        """Yield ``num_requests`` requests with Poisson arrivals."""
        if num_requests < 0:
            raise ConfigurationError("number of requests cannot be negative")
        now = start_time_s
        for _ in range(num_requests):
            now = self._next_arrival(now)
            source = int(self._rng.integers(0, self._num_onis))
            destination = self._pick_destination(source)
            yield TrafficRequest(
                arrival_time_s=now,
                source=source,
                destination=destination,
                payload_bits=self._payload(),
                target_ber=self._target_ber,
                deadline_s=self._deadline(),
            )


class UniformTrafficGenerator(_BaseGenerator):
    """Uniform random traffic: every other ONI is an equally likely destination."""

    def __init__(
        self,
        num_onis: int,
        *,
        mean_request_rate_hz: float = 1e6,
        payload_bits: int = 512,
        target_ber: float = 1e-9,
        rng: np.random.Generator | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        super().__init__(
            num_onis,
            mean_request_rate_hz=mean_request_rate_hz,
            payload_bits=payload_bits,
            target_ber=target_ber,
            rng=rng,
            seed=seed,
        )

    def _pick_destination(self, source: int) -> int:
        destination = int(self._rng.integers(0, self._num_onis - 1))
        if destination >= source:
            destination += 1
        return destination


class HotspotTrafficGenerator(_BaseGenerator):
    """Hotspot traffic: a fraction of requests target one hot ONI (e.g. a memory controller)."""

    def __init__(
        self,
        num_onis: int,
        *,
        hotspot: int = 0,
        hotspot_fraction: float = 0.5,
        mean_request_rate_hz: float = 1e6,
        payload_bits: int = 512,
        target_ber: float = 1e-9,
        rng: np.random.Generator | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        super().__init__(
            num_onis,
            mean_request_rate_hz=mean_request_rate_hz,
            payload_bits=payload_bits,
            target_ber=target_ber,
            rng=rng,
            seed=seed,
        )
        if not 0 <= hotspot < num_onis:
            raise ConfigurationError("hotspot index outside the ONI range")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot fraction must lie in [0, 1]")
        self._hotspot = hotspot
        self._hotspot_fraction = hotspot_fraction

    def _pick_destination(self, source: int) -> int:
        if source != self._hotspot and self._rng.random() < self._hotspot_fraction:
            return self._hotspot
        destination = int(self._rng.integers(0, self._num_onis - 1))
        if destination >= source:
            destination += 1
        return destination


class BurstyTrafficGenerator(_BaseGenerator):
    """Multimedia-like traffic: large bursty payloads with relaxed BER and soft deadlines."""

    def __init__(
        self,
        num_onis: int,
        *,
        mean_request_rate_hz: float = 1e5,
        frame_bits: int = 64 * 1024,
        burstiness: float = 4.0,
        target_ber: float = 1e-6,
        frame_deadline_s: float | None = 1.0 / 30.0,
        rng: np.random.Generator | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        super().__init__(
            num_onis,
            mean_request_rate_hz=mean_request_rate_hz,
            payload_bits=frame_bits,
            target_ber=target_ber,
            rng=rng,
            seed=seed,
        )
        if not (burstiness >= 1.0 and math.isfinite(burstiness)):
            raise ConfigurationError("burstiness must be finite and at least 1.0")
        self._burstiness = burstiness
        self._frame_deadline_s = frame_deadline_s

    def _pick_destination(self, source: int) -> int:
        destination = int(self._rng.integers(0, self._num_onis - 1))
        if destination >= source:
            destination += 1
        return destination

    def _payload(self) -> int:
        # Frame sizes vary around the nominal value with a heavy-ish tail.
        factor = float(self._rng.gamma(shape=self._burstiness, scale=1.0 / self._burstiness))
        return max(64, int(self._payload_bits * factor))

    def _deadline(self) -> float | None:
        return self._frame_deadline_s
