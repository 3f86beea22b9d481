"""Tests for the BER/SNR relations (paper Eq. 1-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.ber import (
    raw_ber_from_snr,
    required_raw_ber,
    required_snr,
    snr_from_ber,
)
from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.coding.uncoded import UncodedScheme
from repro.exceptions import ConfigurationError


class TestEquationThree:
    def test_zero_snr_gives_half(self):
        assert raw_ber_from_snr(0.0) == pytest.approx(0.5)

    def test_known_value_snr_nine(self):
        # erfc(3) / 2 ~ 1.1045e-5.
        assert raw_ber_from_snr(9.0) == pytest.approx(1.1045e-5, rel=1e-3)

    def test_monotonically_decreasing(self):
        snrs = np.linspace(0.0, 25.0, 50)
        bers = raw_ber_from_snr(snrs)
        assert np.all(np.diff(bers) < 0)

    def test_vectorised(self):
        result = raw_ber_from_snr(np.array([1.0, 4.0, 9.0]))
        assert result.shape == (3,)

    def test_rejects_negative_snr(self):
        with pytest.raises(ConfigurationError):
            raw_ber_from_snr(-1.0)

    @pytest.mark.parametrize("snr", [np.nan, np.array([9.0, np.nan])])
    def test_rejects_nan_snr(self, snr):
        with pytest.raises(ConfigurationError):
            raw_ber_from_snr(snr)


class TestEquationOneInversion:
    @pytest.mark.parametrize("ber", [1e-3, 1e-6, 1e-9, 1e-11, 1e-12, 1e-15])
    def test_round_trip(self, ber):
        assert raw_ber_from_snr(snr_from_ber(ber)) == pytest.approx(ber, rel=1e-6)

    def test_lower_ber_needs_higher_snr(self):
        assert snr_from_ber(1e-12) > snr_from_ber(1e-9) > snr_from_ber(1e-6)

    def test_ber_1e11_requires_about_22_5(self):
        # The operating point behind the paper's Figure 5 uncoded curve.
        assert snr_from_ber(1e-11) == pytest.approx(22.5, abs=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            snr_from_ber(0.0)
        with pytest.raises(ConfigurationError):
            snr_from_ber(0.5)

    @pytest.mark.parametrize("ber", [np.nan, np.array([1e-9, np.nan])])
    def test_rejects_nan(self, ber):
        with pytest.raises(ConfigurationError):
            snr_from_ber(ber)

    def test_float_path_bit_identical_to_array_path(self):
        # 2,000 BERs over (1e-30, 0.49): the float path skips np.asarray
        # but must return the array form's bits.
        bers = [float(x) for x in np.logspace(-30, np.log10(0.49), 2000)]
        assert [snr_from_ber(ber).hex() for ber in bers] == [
            float(snr_from_ber(np.asarray(ber))).hex() for ber in bers
        ]


class TestRequiredSnrWithCodes:
    def test_uncoded_matches_direct_inversion(self):
        assert required_snr(UncodedScheme(64), 1e-11) == pytest.approx(snr_from_ber(1e-11))

    def test_coding_lowers_the_required_snr(self):
        target = 1e-11
        uncoded = required_snr(UncodedScheme(64), target)
        h71 = required_snr(ShortenedHammingCode(64), target)
        h74 = required_snr(HammingCode(3), target)
        assert h74 < h71 < uncoded

    def test_snr_reduction_is_roughly_half_at_1e11(self):
        # This is the mechanism behind the ~50% laser power reduction.
        target = 1e-11
        ratio = required_snr(HammingCode(3), target) / required_snr(UncodedScheme(64), target)
        assert 0.4 < ratio < 0.6

    def test_required_raw_ber_ordering(self):
        target = 1e-9
        assert (
            required_raw_ber(HammingCode(3), target)
            > required_raw_ber(ShortenedHammingCode(64), target)
            > required_raw_ber(UncodedScheme(64), target)
        )
