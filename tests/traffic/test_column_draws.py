"""The column draw equals ``generate()``, request for request and state for state.

:meth:`~repro.traffic.generators._BaseGenerator.columns` and ``generate()``
share one draw; ``generate()`` builds request objects from the columns it
appends.  Hypothesis draws a pattern (uniform, hotspot, bursty), a seeded
or caller-``rng`` generator and a ring of two or more ONIs, and requires
the columns to equal the requests field for field and the final
``bit_generator.state`` to be equal, also when ``generate()`` is closed
early (against a column draw of the requests it yielded) and when a second
draw continues the stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_decoded_draws import HUGE_GAP_RATES_HZ, pull
from test_exact_draws import FRAME_BITS, HOTSPOT_FRACTION, PAYLOAD_BITS, TARGET_BER, states_equal

from repro.exceptions import ConfigurationError
from repro.traffic.generators import (
    _BLOCK_REQUESTS,
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TrafficColumns,
    UniformTrafficGenerator,
)

#: A caller's ``rng=`` is built on one of these; ``None`` is a seeded generator.
_STREAMS = (None, np.random.PCG64, np.random.Philox, np.random.MT19937)


def make_generator(kind: str, num_onis: int, stream, seed: int, rate_hz: float = 2e6):
    """A generator of ``kind`` on its own seeded stream, or on a caller's ``rng``."""
    if stream is None:
        source = {"seed": seed}
    else:
        source = {"rng": np.random.Generator(stream(seed))}
    common = dict(mean_request_rate_hz=rate_hz, target_ber=TARGET_BER, **source)
    if kind == "uniform":
        return UniformTrafficGenerator(num_onis, payload_bits=PAYLOAD_BITS, **common)
    if kind == "hotspot":
        return HotspotTrafficGenerator(
            num_onis,
            hotspot=num_onis - 1,
            hotspot_fraction=HOTSPOT_FRACTION,
            payload_bits=PAYLOAD_BITS,
            **common,
        )
    return BurstyTrafficGenerator(num_onis, frame_bits=FRAME_BITS, **common)


def assert_columns_equal(columns: TrafficColumns, requests: list, kind: str) -> None:
    """``columns`` holds exactly ``requests``, field for field and type for type."""
    assert type(columns) is TrafficColumns
    assert columns.arrival_times_s == [r.arrival_time_s for r in requests]
    assert columns.sources == [r.source for r in requests]
    assert columns.destinations == [r.destination for r in requests]
    assert all(type(value) is float for value in columns.arrival_times_s)
    assert all(type(value) is int for value in columns.sources + columns.destinations)
    if kind == "bursty":
        assert columns.payload_bits == [r.payload_bits for r in requests]
        assert all(type(value) is int for value in columns.payload_bits)
    else:
        assert type(columns.payload_bits) is int
        assert all(r.payload_bits == columns.payload_bits for r in requests)
    assert all(r.target_ber == columns.target_ber for r in requests)
    assert all(r.deadline_s == columns.deadline_s for r in requests)


def state_of(generator) -> dict:
    return generator._rng.bit_generator.state


@given(
    kind=st.sampled_from(["uniform", "hotspot", "bursty"]),
    stream=st.sampled_from(_STREAMS),
    num_onis=st.one_of(st.just(2), st.integers(3, 40)),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 2 * _BLOCK_REQUESTS + 7),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_columns_equal_generate_and_leave_the_same_state(
    kind, stream, num_onis, seed, count, data
):
    by_columns = make_generator(kind, num_onis, stream, seed)
    by_objects = make_generator(kind, num_onis, stream, seed)
    columns = by_columns.columns(count)
    requests = list(by_objects.generate(count))
    assert len(requests) == count
    assert_columns_equal(columns, requests, kind)
    assert states_equal(state_of(by_columns), state_of(by_objects))

    # An early close() leaves the state a column draw of the yielded
    # requests leaves, and the next draw continues the same stream.
    close_after = data.draw(st.integers(0, count), label="close_after")
    more = data.draw(st.integers(0, 60), label="more")
    closed = make_generator(kind, num_onis, stream, seed)
    prefix = make_generator(kind, num_onis, stream, seed)
    taken, raised = pull(closed.generate(count + 5), close_after)
    assert not raised
    assert_columns_equal(prefix.columns(close_after), taken, kind)
    assert states_equal(state_of(closed), state_of(prefix))
    assert_columns_equal(prefix.columns(more), list(closed.generate(more)), kind)
    assert states_equal(state_of(closed), state_of(prefix))


@pytest.mark.parametrize("kind", ["uniform", "hotspot", "bursty"])
@pytest.mark.parametrize("stream", _STREAMS, ids=lambda s: "seeded" if s is None else s.__name__)
def test_a_non_finite_arrival_raises_at_the_same_request(kind, stream):
    # Gaps of about 1e308 leave the finite range within a few requests.
    rate_hz = HUGE_GAP_RATES_HZ[0]
    by_columns = make_generator(kind, 12, stream, 7, rate_hz=rate_hz)
    by_objects = make_generator(kind, 12, stream, 7, rate_hz=rate_hz)
    with pytest.raises(ConfigurationError):
        by_columns.columns(50)
    taken, raised = pull(by_objects.generate(50), None)
    assert raised and len(taken) < 50
    assert states_equal(state_of(by_columns), state_of(by_objects))


def test_a_column_draw_while_an_iterator_is_open_raises():
    generator = UniformTrafficGenerator(12, seed=3)
    first = generator.generate(1000)
    next(first)
    with pytest.raises(ConfigurationError):
        generator.columns(5)
    first.close()
    assert len(generator.columns(5).sources) == 5


def test_a_negative_count_is_refused():
    with pytest.raises(ConfigurationError):
        UniformTrafficGenerator(12, seed=3).columns(-1)
