"""Tests for the stochastic OOK/AWGN channel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import OOKAWGNChannel
from repro.channel.ber import raw_ber_from_snr
from repro.coding.packed import pack_bits, popcount_rows
from repro.exceptions import ConfigurationError


class TestOOKAWGNChannel:
    def test_effective_snr_matches_equation_four(self):
        channel = OOKAWGNChannel(100e-6, crosstalk_power_w=4e-6, dark_current_a=4e-6)
        assert channel.effective_snr == pytest.approx((100e-6 - 4e-6) / 4e-6)

    def test_analytic_ber_is_equation_three_of_the_snr(self):
        channel = OOKAWGNChannel(60e-6)
        assert channel.analytic_ber == pytest.approx(
            raw_ber_from_snr(channel.effective_snr)
        )

    def test_noiseless_limit_transmits_correctly(self, rng):
        # A huge signal makes the error probability negligible.
        channel = OOKAWGNChannel(1.0, rng=rng)
        words = pack_bits(rng.integers(0, 2, size=(1, 2000), dtype=np.uint8))
        assert np.array_equal(channel.transmit_batch_packed(words, n=2000), words)

    def test_measured_ber_matches_analytic_prediction(self, rng):
        # Pick an SNR giving a conveniently measurable BER (~7e-3).
        signal = 12e-6
        channel = OOKAWGNChannel(signal, rng=rng)
        predicted = channel.analytic_ber
        words = pack_bits(rng.integers(0, 2, size=(1, 200_000), dtype=np.uint8))
        received = channel.transmit_batch_packed(words, n=200_000)
        measured = int(popcount_rows(received ^ words).sum()) / 200_000
        assert measured == pytest.approx(predicted, rel=0.12)

    def test_crosstalk_degrades_the_snr(self):
        clean = OOKAWGNChannel(100e-6)
        dirty = OOKAWGNChannel(100e-6, crosstalk_power_w=20e-6)
        assert dirty.effective_snr < clean.effective_snr

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OOKAWGNChannel(0.0)
        with pytest.raises(ConfigurationError):
            OOKAWGNChannel(10e-6, crosstalk_power_w=-1e-6)
        with pytest.raises(ConfigurationError):
            OOKAWGNChannel(10e-6, crosstalk_power_w=20e-6)
        with pytest.raises(ConfigurationError):
            OOKAWGNChannel(10e-6, extinction_ratio_db=0.0)
        with pytest.raises(ConfigurationError):
            OOKAWGNChannel(10e-6, dark_current_a=0.0)
