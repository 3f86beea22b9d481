"""Stochastic traffic generators.

Each generator yields :class:`TrafficRequest` objects (source, destination,
payload size, arrival time, BER requirement) that the manager/runtime
simulation can consume directly.  Arrival processes are Poisson with a
configurable mean rate; destinations follow the generator's spatial pattern.

Every generator accepts the shared seeding vocabulary: pass either a
ready-made ``rng`` or a ``seed`` (int or :class:`numpy.random.SeedSequence`,
resolved through :func:`repro.coding.montecarlo.resolve_rng`), so sharded
network sweeps can rebuild a generator's stream from its grid position.

Exact-draw contract
-------------------
Per request the generator draws, in this order:

1. the inter-arrival gap, ``rng.exponential(1 / rate)``;
2. the source, equal to ``int(rng.integers(0, num_onis))``;
3. hotspot traffic only, and only when the source is not the hotspot:
   ``rng.random()``, which sends the request to the hotspot when it falls
   below the hotspot fraction;
4. otherwise the destination among the other ONIs, equal to
   ``int(rng.integers(0, num_onis - 1))`` shifted up by one at or past the
   source;
5. bursty traffic only: the frame-size factor,
   ``rng.gamma(burstiness, 1 / burstiness)``.

Draws 1, 3 and 5 are the NumPy calls themselves.  Draws 2 and 4 are an exact
port of the bounded draw ``Generator.integers`` makes for a range that fits
in 32 bits: Lemire's multiply-shift with rejection, fed by the bit
generator's own ``next_uint32`` through its public ``ctypes`` interface.
That function keeps the bit generator's buffered 32-bit half, so for every
:class:`numpy.random.BitGenerator` the requests *and* the final
``bit_generator.state`` equal those of the NumPy calls, also when the caller
draws from the same ``rng`` between two ``next()`` calls.  Two of NumPy's
edge cases carry over: an empty range (the destination of a two-ONI ring,
``integers(0, 1)``) draws nothing, and ``num_onis`` is capped at
:data:`MAX_ONIS` = ``2**32 - 1`` so every draw stays in that 32-bit branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..coding.montecarlo import resolve_rng
from ..exceptions import ConfigurationError

__all__ = [
    "MAX_ONIS",
    "TrafficRequest",
    "UniformTrafficGenerator",
    "HotspotTrafficGenerator",
    "BurstyTrafficGenerator",
]

#: Largest ONI count whose source draw stays in NumPy's 32-bit Lemire branch.
MAX_ONIS = (1 << 32) - 1

_LOW_WORD = (1 << 32) - 1


@dataclass(frozen=True, slots=True)
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


# The trusted construction path of ``generate``: ``object.__new__`` plus the
# slot descriptors' setters, which bypass the frozen ``__setattr__`` and the
# ``__post_init__`` checks the generator has already made.
_new_object = object.__new__
(
    _set_arrival,
    _set_source,
    _set_destination,
    _set_payload,
    _set_target_ber,
    _set_deadline,
) = (getattr(TrafficRequest, name).__set__ for name in TrafficRequest.__slots__)


def _lemire_threshold(span: int) -> int:
    """Rejection threshold of NumPy's 32-bit Lemire draw on ``[0, span)``.

    NumPy redraws while the low word of ``next_uint32() * span`` is below
    ``(2**32 - span) % span``; its ``leftover < span`` pre-check only skips
    computing this bound, which is always smaller than ``span``.
    """
    return ((1 << 32) - span) % span


class _BaseGenerator:
    """Shared plumbing of the stochastic generators.

    The subclasses only configure the per-request variations that
    :meth:`generate` reads: a hotspot (``_hotspot``/``_hotspot_fraction``),
    gamma-distributed frame sizes (``_burstiness``) and a deadline.
    """

    _hotspot: int | None = None
    _hotspot_fraction = 0.0
    _burstiness: float | None = None
    _deadline_s: float | None = None

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
        if num_onis > MAX_ONIS:
            raise ConfigurationError(f"traffic supports at most {MAX_ONIS} ONIs")
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

    def generate(self, num_requests: int, *, start_time_s: float = 0.0) -> Iterator[TrafficRequest]:
        """Yield ``num_requests`` requests with Poisson arrivals.

        The draws follow the module's exact-draw contract, so the stream is
        the one the documented NumPy calls would produce.
        """
        if num_requests < 0:
            raise ConfigurationError("number of requests cannot be negative")
        rng = self._rng
        interface = rng.bit_generator.ctypes
        next_uint32, state = interface.next_uint32, interface.state
        exponential, mean_gap_s = rng.exponential, 1.0 / self._rate
        random, gamma = rng.random, rng.gamma
        isfinite = math.isfinite
        num_onis = self._num_onis
        others = num_onis - 1
        source_threshold = _lemire_threshold(num_onis)
        other_threshold = _lemire_threshold(others)
        hotspot, hotspot_fraction = self._hotspot, self._hotspot_fraction
        burstiness = self._burstiness
        gamma_scale = None if burstiness is None else 1.0 / burstiness
        payload_bits = self._payload_bits
        target_ber = self._target_ber
        deadline_s = self._deadline_s

        now = start_time_s
        for _ in range(num_requests):
            now += exponential(mean_gap_s)
            if not isfinite(now):
                raise ConfigurationError("arrival time must be finite")
            word = next_uint32(state) * num_onis
            while word & _LOW_WORD < source_threshold:
                word = next_uint32(state) * num_onis
            source = word >> 32
            if hotspot is not None and source != hotspot and random() < hotspot_fraction:
                destination = hotspot
            else:
                destination = 0
                if others > 1:
                    word = next_uint32(state) * others
                    while word & _LOW_WORD < other_threshold:
                        word = next_uint32(state) * others
                    destination = word >> 32
                if destination >= source:
                    destination += 1
            if burstiness is None:
                payload = payload_bits
            else:
                # Frame sizes vary around the nominal value with a heavy-ish tail.
                payload = max(64, int(payload_bits * gamma(burstiness, gamma_scale)))
            request = _new_object(TrafficRequest)
            _set_arrival(request, now)
            _set_source(request, source)
            _set_destination(request, destination)
            _set_payload(request, payload)
            _set_target_ber(request, target_ber)
            _set_deadline(request, deadline_s)
            yield request


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
        self._deadline_s = frame_deadline_s
