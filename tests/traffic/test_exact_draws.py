"""The generators' draws equal the NumPy calls they replace, stream and state.

Sources and destinations come from a port of NumPy's 32-bit Lemire bounded
draw on the bit generator's own ``next_uint32`` (see the exact-draw contract
in :mod:`repro.traffic.generators`).  Each case runs one checker over two
backends: the NumPy-call loop the port replaced (the oracle) and the
generator itself.  Both must then agree on every request, on every value the
caller drew from the shared ``rng`` between two ``next()`` calls, and on the
final ``bit_generator.state``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.traffic.generators import (
    BURSTINESS,
    FRAME_DEADLINE_S,
    MAX_ONIS,
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TrafficRequest,
    UniformTrafficGenerator,
)

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)
KINDS = ("uniform", "hotspot", "bursty")
#: Two ONIs make the destination range empty; at 2**31 + 7 Lemire rejects
#: about half the draws; 2**32 - 1 is the largest count the port accepts.
NUM_ONIS = (2, 3, 12, 2**31 + 7, MAX_ONIS)
NUM_REQUESTS = 48
SEED = 20240917

RATE_HZ = 2e6
PAYLOAD_BITS = 512
TARGET_BER = 1e-9
HOTSPOT_FRACTION = 0.4
FRAME_BITS = 4096

#: Draws a caller makes on the shared rng between two ``next()`` calls: a
#: buffered 32-bit bounded draw, a double, and a 64-bit bounded draw.
INTERLEAVED_DRAWS = (
    lambda rng: int(rng.integers(0, 5)),
    lambda rng: rng.random(),
    lambda rng: int(rng.integers(0, 2**40)),
)


class Case(NamedTuple):
    bit_generator: type
    kind: str
    num_onis: int
    interleave: bool

    @property
    def hotspot(self) -> int:
        return self.num_onis - 1


class Outcome(NamedTuple):
    requests: list
    interleaved: list
    state: dict


def numpy_oracle(
    case: Case,
    rng: np.random.Generator,
    count: int,
    *,
    start_time_s: float = 0.0,
    rate_hz: float = RATE_HZ,
) -> Iterator[TrafficRequest]:
    """The NumPy-call loop the generators used to run, one draw at a time.

    A non-finite arrival raises right after its gap is drawn, before the
    ONI draws, as the generators do.
    """
    now = start_time_s
    for _ in range(count):
        now = now + float(rng.exponential(1.0 / rate_hz))
        if not math.isfinite(now):
            raise ConfigurationError("arrival time must be finite")
        source = int(rng.integers(0, case.num_onis))
        if case.kind == "hotspot" and source != case.hotspot and rng.random() < HOTSPOT_FRACTION:
            destination = case.hotspot
        else:
            destination = int(rng.integers(0, case.num_onis - 1))
            if destination >= source:
                destination += 1
        payload, deadline = PAYLOAD_BITS, None
        if case.kind == "bursty":
            factor = float(rng.gamma(shape=BURSTINESS, scale=1.0 / BURSTINESS))
            payload, deadline = max(64, int(FRAME_BITS * factor)), FRAME_DEADLINE_S
        yield TrafficRequest(now, source, destination, payload, TARGET_BER, deadline)


def traffic_generator(case: Case, rng: np.random.Generator, count: int) -> Iterator[TrafficRequest]:
    """The generator under test, configured like the oracle."""
    common = dict(mean_request_rate_hz=RATE_HZ, target_ber=TARGET_BER, rng=rng)
    if case.kind == "uniform":
        generator = UniformTrafficGenerator(case.num_onis, payload_bits=PAYLOAD_BITS, **common)
    elif case.kind == "hotspot":
        generator = HotspotTrafficGenerator(
            case.num_onis,
            hotspot=case.hotspot,
            hotspot_fraction=HOTSPOT_FRACTION,
            payload_bits=PAYLOAD_BITS,
            **common,
        )
    else:
        generator = BurstyTrafficGenerator(
            case.num_onis,
            frame_bits=FRAME_BITS,
            **common,
        )
    return generator.generate(count)


BACKENDS = (numpy_oracle, traffic_generator)


def drive(backend: Callable, case: Case) -> Outcome:
    """Pull every request from one backend, drawing in between if asked."""
    rng = np.random.Generator(case.bit_generator(SEED))
    requests, interleaved = [], []
    for index, request in enumerate(backend(case, rng, NUM_REQUESTS)):
        requests.append(request)
        if case.interleave:
            interleaved.append(INTERLEAVED_DRAWS[index % len(INTERLEAVED_DRAWS)](rng))
    return Outcome(requests, interleaved, rng.bit_generator.state)


def check_requests(case: Case, outcome: Outcome) -> None:
    """The checker both backends' output must pass."""
    assert len(outcome.requests) == NUM_REQUESTS
    assert len(outcome.interleaved) == (NUM_REQUESTS if case.interleave else 0)
    previous = 0.0
    for request in outcome.requests:
        assert type(request.arrival_time_s) is float
        assert type(request.source) is int and type(request.destination) is int
        assert 0 <= request.source < case.num_onis
        assert 0 <= request.destination < case.num_onis
        assert request.source != request.destination
        assert request.arrival_time_s >= previous
        previous = request.arrival_time_s
        if case.kind == "bursty":
            assert request.payload_bits >= 64 and request.deadline_s == FRAME_DEADLINE_S
        else:
            assert request.payload_bits == PAYLOAD_BITS and request.deadline_s is None


def states_equal(left, right) -> bool:
    """Deep equality of two ``bit_generator.state`` dictionaries."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            states_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, np.ndarray):
        return isinstance(right, np.ndarray) and np.array_equal(left, right)
    return left == right


def run_case(case: Case, checker: Callable[[Case, Outcome], None]) -> None:
    """Check both backends' output, then require them to agree exactly."""
    outcomes = []
    for backend in BACKENDS:
        outcome = drive(backend, case)
        checker(case, outcome)
        outcomes.append(outcome)
    expected, actual = outcomes
    assert actual.requests == expected.requests
    assert actual.interleaved == expected.interleaved
    assert states_equal(actual.state, expected.state)


CASES = [
    Case(*values)
    for values in itertools.product(BIT_GENERATORS, KINDS, NUM_ONIS, (False, True))
]


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[
        f"{c.bit_generator.__name__}-{c.kind}-{c.num_onis}-{'shared' if c.interleave else 'own'}"
        for c in CASES
    ],
)
def test_generator_matches_the_numpy_call_loop(case):
    run_case(case, check_requests)


@pytest.mark.parametrize(
    "factory", [UniformTrafficGenerator, HotspotTrafficGenerator, BurstyTrafficGenerator]
)
def test_rings_past_the_32_bit_branch_are_rejected(factory):
    with pytest.raises(ConfigurationError, match="at most"):
        factory(MAX_ONIS + 1, seed=1)
    assert next(factory(MAX_ONIS, seed=1).generate(1)).source < MAX_ONIS
