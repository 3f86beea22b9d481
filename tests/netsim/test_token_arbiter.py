"""Tests for the test oracle's token arbiter.

:class:`oracle.TokenArbiter` is the oracle's own copy of the round-robin
token recurrence that ``repro.netsim.epoch`` inlines; the parity suites
compare the two through whole runs, these cases pin the arbiter itself.
"""

from __future__ import annotations

import pytest
from oracle import ArbitrationError, TokenArbiter

from repro.exceptions import ConfigurationError
from repro.netsim.epoch import TOKEN_HOP_TIME_S


class TestTokenArbiter:
    def test_single_writer_gets_immediate_grants(self):
        arbiter = TokenArbiter(writers=[1])
        assert arbiter.request(1, now_s=0.0, duration_s=1e-6) == pytest.approx(0.0)
        assert arbiter.request(1, now_s=0.0, duration_s=1e-6) == pytest.approx(1e-6)

    def test_transfers_serialise_on_the_channel(self):
        arbiter = TokenArbiter(writers=[1, 2, 3])
        first = arbiter.request(1, 0.0, 5e-9)
        second = arbiter.request(2, 0.0, 5e-9)
        assert first == pytest.approx(0.0)
        assert second >= first + 5e-9

    def test_token_hops_add_latency(self):
        arbiter = TokenArbiter(writers=[1, 2, 3])
        arbiter.request(1, 0.0, 0.0)
        start = arbiter.request(3, 0.0, 0.0)
        assert start == pytest.approx(2 * TOKEN_HOP_TIME_S)

    def test_unknown_writer_rejected(self):
        arbiter = TokenArbiter(writers=[1, 2])
        with pytest.raises(ArbitrationError):
            arbiter.request(9, 0.0, 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenArbiter(writers=[])
        with pytest.raises(ConfigurationError):
            TokenArbiter(writers=[1, 1])
