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

Decoded uniform traffic
-----------------------
A :class:`UniformTrafficGenerator` built without ``rng=`` (from ``seed`` or
fresh entropy) on three or more ONIs owns its PCG64 stream: nobody else can
draw from it between two ``next()`` calls.  It draws a block of raw words at
a time with ``bit_generator.random_raw`` and decodes them in NumPy.  A
request usually takes exactly two words.  The first is the gap, on the fast
path of NumPy's exponential ziggurat: ``ri = (w >> 3) >> 8`` and
``idx = (w >> 3) & 0xFF``, taken when ``ri < ke[idx]``, give
``scale * (ri * we[idx])``.  The low and high halves of the second are the
source and destination draws, through the same Lemire multiply-shift.  The
``ke``/``we`` tables are literals in :mod:`repro.traffic.ziggurat`, read off
NumPy (its docstring says how) and re-derived bit for bit by
``tests/traffic/test_ziggurat_tables.py``.  A request off that pattern (a
slow-path gap, about 2% of them; a Lemire rejection; a half-word left in the
``uint32`` buffer; a non-finite arrival) is drawn by the scalar loop from
its exact state, set with ``advance``.  Stepping PCG64's LCG from that state
counts the words it took, and decoding resumes behind them.  The generator
ends on the state the scalar loop leaves, ``has_uint32`` and the stale
``uinteger`` half included, also when the iterator is closed early.  While
a block is out the bit generator runs ahead of the yielded requests, so a
seeded generator supports one open iterator at a time: ``generate()``
raises :class:`~repro.exceptions.ConfigurationError` while one is open, and
a second ``generate()`` after the first is exhausted or closed continues
the stream exactly.
Hotspot, bursty and two-ONI traffic and caller-supplied ``rng=`` generators
keep the scalar loop.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from ..coding.montecarlo import resolve_rng
from ..exceptions import ConfigurationError
from .ziggurat import EXPONENTIAL_KE, EXPONENTIAL_WE

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

#: Requests each block of raw words is drawn for on the decoded path.
_BLOCK_REQUESTS = 512
_KE = np.array(EXPONENTIAL_KE, dtype=np.uint64)
_WE = np.array(EXPONENTIAL_WE, dtype=np.float64)
_LOW_HALF = np.uint64(_LOW_WORD)
#: PCG64's LCG multiplier (PCG's default for 128-bit states): one word
#: moves the state from ``s`` to ``(s * multiplier + inc) % 2**128``.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_MASK = (1 << 128) - 1
_ONE_OPEN_ITERATOR = "a seeded uniform generator supports one open iterator at a time"


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


def _decode_block(words: np.ndarray, scale: float, num_onis: int) -> tuple:
    """Decode every word of one block of raw PCG64 words both ways.

    Returns ``(gaps, sources, destinations, breaks)``.  Read as an arrival's
    word, word ``w`` gives the gap ``gaps[w]``; read as the word whose halves
    draw a request's ONIs, it gives ``sources[w]`` and ``destinations[w]``.
    ``breaks[parity]`` lists, ascending and closed by ``len(words)``, the
    words of that parity at which a request would leave the pattern: its gap
    off the exponential ziggurat's fast path, or either Lemire draw on the
    next word rejected.
    """
    shifted = words >> np.uint64(3)
    layer = shifted & np.uint64(0xFF)
    ri = shifted >> np.uint64(8)
    fast = ri < _KE.take(layer)
    gaps = ri * _WE.take(layer)
    # A huge mean gap overflows to inf here as silently as in NumPy's own
    # scalar ``exponential``; the arrival check raises for it.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps *= scale
    others = num_onis - 1
    scaled = (words & _LOW_HALF) * np.uint64(num_onis)
    pair_ok = (scaled & _LOW_HALF) >= np.uint64(_lemire_threshold(num_onis))
    sources = scaled >> np.uint64(32)
    scaled = (words >> np.uint64(32)) * np.uint64(others)
    pair_ok &= (scaled & _LOW_HALF) >= np.uint64(_lemire_threshold(others))
    destinations = scaled >> np.uint64(32)
    destinations += destinations >= sources
    leaves = ~fast[:-1]
    leaves |= ~pair_ok[1:]
    starts = np.flatnonzero(leaves)
    odd = (starts & 1).astype(bool)
    closing = [len(words)]
    breaks = (starts[~odd].tolist() + closing, starts[odd].tolist() + closing)
    return gaps.tolist(), sources.tolist(), destinations.tolist(), breaks


def _steps(start: int, end: int, inc: int) -> int:
    """How many words a PCG64 stream drew between LCG states ``start`` and ``end``."""
    steps = 0
    while start != end:
        start = (start * _PCG64_MULTIPLIER + inc) & _STATE_MASK
        steps += 1
    return steps


def _settle(bit_generator: np.random.PCG64, delta: int, stale: int) -> None:
    """Move ``bit_generator`` by ``delta`` words to a request boundary.

    ``advance`` wraps ``delta`` modulo ``2**128``, so it also steps back, and
    it empties the ``uint32`` buffer; the stale half the scalar loop would
    have left there is put back.
    """
    bit_generator.advance(delta)
    state = bit_generator.state
    state["uinteger"] = stale
    bit_generator.state = state


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
        # Nobody else can draw from a stream built here, which is what lets
        # ``_decoded_requests`` draw ahead of the requests it has yielded.
        self._owns_stream = rng is None
        self._decoding = False

    def generate(self, num_requests: int, *, start_time_s: float = 0.0) -> Iterator[TrafficRequest]:
        """Yield ``num_requests`` requests with Poisson arrivals.

        The draws follow the module's exact-draw contract, so the stream is
        the one the documented NumPy calls would produce.
        """
        if num_requests < 0:
            raise ConfigurationError("number of requests cannot be negative")
        if self._decoding:
            raise ConfigurationError(_ONE_OPEN_ITERATOR)
        if (
            self._owns_stream
            and self._hotspot is None
            and self._burstiness is None
            and self._num_onis > 2
            and type(self._rng.bit_generator) is np.random.PCG64
        ):
            return self._decoded_requests(num_requests, start_time_s)
        return self._drawn_requests(num_requests, start_time_s)

    def _drawn_requests(self, num_requests: int, start_time_s: float) -> Iterator[TrafficRequest]:
        """The scalar loop: every draw is one NumPy call or one ``next_uint32``."""
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

    def _decoded_requests(
        self, num_requests: int, start_time_s: float
    ) -> Iterator[TrafficRequest]:
        """Uniform traffic on a PCG64 stream this generator owns, decoded in blocks.

        Draws one block of raw words at a time and decodes every request that
        follows the common pattern (see the module docstring).  A request
        that leaves it is drawn by :meth:`_drawn_requests` from its exact
        state; the words it took are counted by stepping PCG64's LCG, and
        decoding resumes behind them.  The bit generator runs ahead of the
        yielded requests while a block is open, so it is put back on the
        scalar loop's state (the stale ``uinteger`` half included) when the
        block ends and when the iterator is closed.
        """
        if self._decoding:
            raise ConfigurationError(_ONE_OPEN_ITERATOR)
        self._decoding = True
        bit_generator = self._rng.bit_generator
        advance = bit_generator.advance
        scalar = self._drawn_requests
        scale = 1.0 / self._rate
        num_onis = self._num_onis
        payload_bits = self._payload_bits
        target_ber = self._target_ber
        isfinite = math.isfinite

        now = start_time_s
        remaining = num_requests
        try:
            while remaining:
                origin = bit_generator.state
                if origin["has_uint32"]:
                    # A Lemire rejection left half a word buffered: draw
                    # scalar requests until the buffer is empty again.
                    request = next(scalar(1, now))
                    now = request.arrival_time_s
                    remaining -= 1
                    yield request
                    continue
                words = bit_generator.random_raw(2 * min(remaining, _BLOCK_REQUESTS))
                gaps, sources, destinations, breaks = _decode_block(words, scale, num_onis)
                block_words = len(words)
                inc = origin["state"]["inc"]
                # Word offsets from ``origin``: the bit generator's (``at``)
                # and the next request's (``position``), whose stale half is
                # ``stale``.
                at = block_words
                position = 0
                stale = origin["uinteger"]
                while True:
                    end = block_words - (position & 1)
                    if not remaining or position >= end:
                        _settle(bit_generator, position - at, stale)
                        break
                    starts = breaks[position & 1]
                    stop = min(
                        starts[bisect_left(starts, position)], end, position + 2 * remaining
                    )
                    times = list(accumulate(gaps[position:stop:2], initial=now))
                    if not isfinite(times[-1]):
                        # Sums never come back from inf or NaN, so the finite
                        # arrivals are a prefix; the first other one raises
                        # from the scalar loop below.
                        stop = position + 2 * sum(map(isfinite, times[1:]))
                    for word, arrival in zip(range(position + 1, stop, 2), times[1:]):
                        request = _new_object(TrafficRequest)
                        _set_arrival(request, arrival)
                        _set_source(request, sources[word])
                        _set_destination(request, destinations[word])
                        _set_payload(request, payload_bits)
                        _set_target_ber(request, target_ber)
                        _set_deadline(request, None)
                        try:
                            yield request
                        except GeneratorExit:
                            _settle(bit_generator, word + 1 - at, int(words[word]) >> 32)
                            raise
                    if stop > position:
                        done = (stop - position) // 2
                        remaining -= done
                        now = times[done]
                        position = stop
                        stale = int(words[stop - 1]) >> 32
                    if not remaining or position == end:
                        continue
                    # The request at ``position`` leaves the pattern (a
                    # slow-path gap, a Lemire rejection or a non-finite
                    # arrival): the scalar loop draws it from its exact state.
                    advance(position - at)
                    here = bit_generator.state["state"]["state"]
                    try:
                        request = next(scalar(1, now))
                    except ConfigurationError:
                        # ``advance`` emptied the buffer; the gap left it alone.
                        _settle(bit_generator, 0, stale)
                        raise
                    now = request.arrival_time_s
                    remaining -= 1
                    drawn = bit_generator.state
                    if drawn["has_uint32"]:
                        # Misaligned: the outer loop takes over from this state.
                        yield request
                        break
                    position += _steps(here, drawn["state"]["state"], inc)
                    at = position
                    stale = drawn["uinteger"]
                    yield request
        finally:
            self._decoding = False


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
