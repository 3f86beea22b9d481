"""Seeded uniform traffic decoded from raw words equals the NumPy-call loop.

A :class:`~repro.traffic.generators.UniformTrafficGenerator` built from a
``seed`` owns its PCG64 stream and decodes whole blocks of raw words (see
the module docstring of :mod:`repro.traffic.generators`).  Hypothesis runs
that path against :func:`test_exact_draws.numpy_oracle` on the same seed and
requires the same requests, the same request at which a non-finite arrival
raises, and the same final ``bit_generator.state``: after the last request,
after an early ``close()``, and after a second ``generate()`` that continues
the stream.  A second iterator started while one is open raises.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_exact_draws import (
    PAYLOAD_BITS,
    RATE_HZ,
    TARGET_BER,
    Case,
    numpy_oracle,
    states_equal,
)

from repro.exceptions import ConfigurationError
from repro.traffic.generators import (
    _BLOCK_REQUESTS,
    _PCG64_MULTIPLIER,
    MAX_ONIS,
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    UniformTrafficGenerator,
)

#: A rate whose gaps (about 1e293) are a few ulps of the largest float, so
#: arrivals started a few dozen ulps below it leave the floats mid-stream.
TINY_RATE_HZ = 1e-293
#: Mean gaps of 1e308 (the first few sums overflow) and inf.
HUGE_GAP_RATES_HZ = (1e-308, 5e-324)
_ULP_AT_MAX = sys.float_info.max - math.nextafter(sys.float_info.max, 0.0)

_num_onis = st.one_of(st.integers(3, 64), st.sampled_from([2**31 + 7, MAX_ONIS]))
_everyday = st.tuples(
    st.just(RATE_HZ),
    st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_nan=False)),
)
_overflowing = st.one_of(
    st.tuples(
        st.just(TINY_RATE_HZ),
        st.one_of(
            st.integers(0, 120).map(lambda ulps: sys.float_info.max - ulps * _ULP_AT_MAX),
            st.just(float("inf")),
        ),
    ),
    st.tuples(st.sampled_from(HUGE_GAP_RATES_HZ), st.just(0.0)),
)


def pull(requests, limit):
    """Take up to ``limit`` requests (all with ``None``), then close."""
    taken, raised = [], False
    try:
        if limit != 0:
            for request in requests:
                taken.append(request)
                if len(taken) == limit:
                    break
    except ConfigurationError:
        raised = True
    requests.close()
    return taken, raised


@given(
    seed=st.integers(0, 2**64 - 1),
    num_onis=_num_onis,
    count=st.integers(0, 3 * _BLOCK_REQUESTS + 7),
    rate_and_start=st.one_of(_everyday, _overflowing),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decoded_stream_and_state_equal_the_numpy_calls(
    seed, num_onis, count, rate_and_start, data
):
    rate_hz, start_time_s = rate_and_start
    close_after = data.draw(st.one_of(st.none(), st.integers(0, count)), label="close_after")
    more = data.draw(st.integers(0, 40), label="more")
    case = Case(np.random.PCG64, "uniform", num_onis, False)

    generator = UniformTrafficGenerator(
        num_onis,
        mean_request_rate_hz=rate_hz,
        payload_bits=PAYLOAD_BITS,
        target_ber=TARGET_BER,
        seed=seed,
    )
    assert draw_path(generator) == "_decoded"
    decoded = generator.generate(count, start_time_s=start_time_s)
    rng = np.random.default_rng(seed)
    oracle = numpy_oracle(case, rng, count, start_time_s=start_time_s, rate_hz=rate_hz)

    actual, actual_raised = pull(decoded, close_after)
    expected, expected_raised = pull(oracle, close_after)
    assert actual == expected
    assert actual_raised == expected_raised
    assert states_equal(generator._rng.bit_generator.state, rng.bit_generator.state)

    # One open iterator at a time: the next one continues the scalar stream.
    if not actual_raised:
        actual, _ = pull(generator.generate(more), None)
        expected, _ = pull(numpy_oracle(case, rng, more, rate_hz=rate_hz), None)
        assert actual == expected
        assert states_equal(generator._rng.bit_generator.state, rng.bit_generator.state)


def draw_path(generator) -> str:
    """Name of the draw ``generate`` and ``columns`` take on ``generator``."""
    return generator._segments(3, 0.0, ([], [], [], [])).__name__


def test_caller_streams_hotspots_bursts_and_two_oni_rings_stay_scalar():
    rng = np.random.default_rng(1)
    assert draw_path(UniformTrafficGenerator(12, rng=rng)) == "_drawn"
    assert draw_path(UniformTrafficGenerator(2, seed=1)) == "_drawn"
    assert draw_path(HotspotTrafficGenerator(12, seed=1)) == "_drawn"
    assert draw_path(BurstyTrafficGenerator(12, seed=1)) == "_drawn"
    assert draw_path(UniformTrafficGenerator(3, seed=1)) == "_decoded"


def test_a_second_iterator_while_one_is_open_raises():
    generator = UniformTrafficGenerator(12, seed=3)
    unstarted = generator.generate(5)
    first = generator.generate(1000)
    next(first)
    with pytest.raises(ConfigurationError, match="one open iterator"):
        generator.generate(5)
    with pytest.raises(ConfigurationError, match="one open iterator"):
        next(unstarted)
    first.close()
    rng = np.random.default_rng(3)
    case = Case(np.random.PCG64, "uniform", 12, False)
    expected, _ = pull(numpy_oracle(case, rng, 6), None)
    assert [(request.source, request.destination) for request in generator.generate(5)] == [
        (request.source, request.destination) for request in expected[1:]
    ]


@pytest.mark.parametrize("num_onis,requests", [(12, 240), (2**31 + 7, 40)])
def test_closing_after_any_request_leaves_the_scalar_state(num_onis, requests):
    """Deterministic sweep of every close point, fallback draws included.

    Twelve ONIs make about five of the first 240 requests slow-path gaps; at
    ``2**31 + 7`` ONIs half the ONI draws are rejected, so the scalar
    fallback ends both aligned and misaligned.
    """
    case = Case(np.random.PCG64, "uniform", num_onis, False)
    for limit in range(requests + 1):
        generator = UniformTrafficGenerator(
            num_onis, mean_request_rate_hz=RATE_HZ, payload_bits=PAYLOAD_BITS, seed=7
        )
        rng = np.random.default_rng(7)
        actual, _ = pull(generator.generate(requests), limit)
        expected, _ = pull(numpy_oracle(case, rng, requests), limit)
        assert actual == expected
        assert states_equal(generator._rng.bit_generator.state, rng.bit_generator.state)


def test_a_slow_path_gap_leaving_the_floats_raises_on_the_scalar_state():
    """Seed 0's 14th gap is a slow-path one and, from 87 ulps below the
    largest float, the first arrival that overflows, with a stale half left
    by the 13 requests before it."""
    start_time_s = sys.float_info.max - 87 * _ULP_AT_MAX
    case = Case(np.random.PCG64, "uniform", 12, False)
    generator = UniformTrafficGenerator(
        12, mean_request_rate_hz=TINY_RATE_HZ, payload_bits=PAYLOAD_BITS, seed=0
    )
    rng = np.random.default_rng(0)
    actual, actual_raised = pull(generator.generate(50, start_time_s=start_time_s), None)
    expected, expected_raised = pull(
        numpy_oracle(case, rng, 50, start_time_s=start_time_s, rate_hz=TINY_RATE_HZ), None
    )
    assert actual_raised and expected_raised
    assert actual == expected and len(actual) == 13
    assert states_equal(generator._rng.bit_generator.state, rng.bit_generator.state)


def test_the_lcg_multiplier_is_numpys():
    """One PCG64 word from state 1 with increment 1 lands on the multiplier plus one."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": 1, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.random_raw()
    assert bit_generator.state["state"]["state"] == _PCG64_MULTIPLIER + 1
