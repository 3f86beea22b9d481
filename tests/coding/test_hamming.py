"""Tests for Hamming and shortened Hamming codes."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from coding.oracle import (
    decode_packed,
    encode_reference,
    hamming_parity_submatrix_reference,
    minimum_distance_exhaustive,
)

from repro.coding.hamming import (
    HammingCode,
    _full_hamming_parity_submatrix,
    ShortenedHammingCode,
    hamming_parameters_for_message_length,
)
from repro.coding.packed import pack_bits, popcount_rows, unpack_bits
from repro.exceptions import ConfigurationError


class TestHammingParameters:
    def test_h74(self):
        code = HammingCode(3)
        assert (code.n, code.k) == (7, 4)
        assert code.num_parity_bits == 3
        assert minimum_distance_exhaustive(code.generator_matrix) == 3
        assert code.correctable_errors == 1
        assert code.name == "H(7,4)"

    def test_h1511(self):
        code = HammingCode(4)
        assert (code.n, code.k) == (15, 11)

    def test_h6357(self):
        code = HammingCode(6)
        assert (code.n, code.k) == (63, 57)

    def test_code_rate_and_ct(self):
        code = HammingCode(3)
        assert code.code_rate == pytest.approx(4.0 / 7.0)
        assert code.communication_time_overhead == pytest.approx(1.75)

    def test_rejects_m_below_two(self):
        with pytest.raises(ConfigurationError):
            HammingCode(1)

    def test_generator_is_systematic(self):
        code = HammingCode(3)
        generator = code.generator_matrix
        assert np.array_equal(generator[:, :4], np.eye(4, dtype=np.uint8))

    def test_parity_check_annihilates_generator(self):
        code = HammingCode(4)
        for row in code.generator_matrix:
            assert not code.syndrome(row).any()

    @pytest.mark.parametrize("m", range(2, 11))
    def test_parity_submatrix_matches_the_label_loop(self, m):
        parity = _full_hamming_parity_submatrix(m)
        reference = hamming_parity_submatrix_reference(m)
        assert parity.dtype == reference.dtype == np.uint8
        assert np.array_equal(parity, reference)


class TestHammingEncodingDecoding:
    def test_zero_message_maps_to_zero_codeword(self):
        code = HammingCode(3)
        assert not code.encode_batch_packed(np.zeros((1, 1), dtype=np.uint64)).any()

    def test_round_trip_without_errors(self, rng):
        code = HammingCode(3)
        messages = rng.integers(0, 2, size=(20, 4), dtype=np.uint8)
        words = code.encode_batch_packed(pack_bits(messages))
        result = code.decode_batch_packed(words)
        assert np.array_equal(unpack_bits(result.corrected_words, code.n)[:, : code.k], messages)
        assert np.array_equal(result.corrected_words, words)

    def test_corrects_every_single_bit_error(self, rng):
        code = HammingCode(3)
        message = rng.integers(0, 2, size=4, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for position in range(code.n):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = decode_packed(code, corrupted)
            assert result.corrected
            assert np.array_equal(result.message_bits, message)
            assert np.array_equal(result.corrected_codeword, codeword)

    def test_double_errors_are_miscorrected_not_fixed(self, rng):
        # A distance-3 code cannot correct 2 errors; the decoder lands on a
        # different codeword (this is why Eq. 2 has the (n-1)p^2 behaviour).
        code = HammingCode(3)
        message = rng.integers(0, 2, size=4, dtype=np.uint8)
        codeword = encode_reference(code, message)
        corrupted = codeword.copy()
        corrupted[0] ^= 1
        corrupted[5] ^= 1
        result = decode_packed(code, corrupted)
        assert result.detected_error
        assert not np.array_equal(result.corrected_codeword, codeword)
        assert not code.syndrome(result.corrected_codeword).any()

    def test_all_codewords_have_weight_zero_or_at_least_three(self):
        code = HammingCode(3)
        messages = np.array(list(product((0, 1), repeat=code.k)), dtype=np.uint8)
        weights = set(popcount_rows(code.encode_batch_packed(pack_bits(messages))).tolist())
        assert 1 not in weights
        assert 2 not in weights


class TestShortenedHamming:
    def test_h7164_parameters(self):
        code = ShortenedHammingCode(64)
        assert (code.n, code.k) == (71, 64)
        assert code.name == "H(71,64)"
        assert code.m == 7
        assert code.communication_time_overhead == pytest.approx(71.0 / 64.0)

    def test_shortening_to_full_payload_matches_full_code_size(self):
        code = ShortenedHammingCode(57)
        assert (code.n, code.k) == (63, 57)

    def test_round_trip_and_single_error_correction(self, rng):
        code = ShortenedHammingCode(64)
        message = rng.integers(0, 2, size=64, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for position in rng.choice(code.n, size=12, replace=False):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = decode_packed(code, corrupted)
            assert result.corrected
            assert np.array_equal(result.message_bits, message)

    def test_minimum_distance_is_still_three(self):
        # Shortening cannot decrease the distance; check a small shortened code
        # exhaustively.
        code = ShortenedHammingCode(8)
        assert minimum_distance_exhaustive(code.generator_matrix) >= 3

    def test_rejects_non_positive_payload(self):
        with pytest.raises(ConfigurationError):
            ShortenedHammingCode(0)


class TestParameterHelper:
    def test_for_64_bits(self):
        assert hamming_parameters_for_message_length(64) == (7, 120)

    def test_for_4_bits(self):
        assert hamming_parameters_for_message_length(4) == (3, 4)

    def test_for_11_bits(self):
        assert hamming_parameters_for_message_length(11) == (4, 11)

    def test_for_boundary_values(self):
        assert hamming_parameters_for_message_length(1) == (2, 1)
        assert hamming_parameters_for_message_length(120) == (7, 120)
        assert hamming_parameters_for_message_length(121) == (8, 247)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            hamming_parameters_for_message_length(0)
