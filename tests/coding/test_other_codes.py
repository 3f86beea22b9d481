"""Tests for the uncoded scheme, SECDED, parity and repetition codes."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from coding.oracle import decode_packed, encode_reference, minimum_distance_exhaustive

from repro.coding.extended_hamming import ExtendedHammingCode
from repro.coding.packed import pack_bits, popcount_rows
from repro.coding.parity import SingleParityCheckCode
from repro.coding.repetition import RepetitionCode
from repro.coding.uncoded import UncodedScheme
from repro.exceptions import ConfigurationError


def _codeword_weights(code) -> np.ndarray:
    """Weights of every codeword, encoded packed from all ``2^k`` messages."""
    messages = np.array(list(product((0, 1), repeat=code.k)), dtype=np.uint8)
    return popcount_rows(code.encode_batch_packed(pack_bits(messages)))


class TestUncodedScheme:
    def test_metadata(self):
        scheme = UncodedScheme(64)
        assert scheme.n == scheme.k == 64
        assert scheme.num_parity_bits == 0
        assert scheme.code_rate == 1.0
        assert scheme.communication_time_overhead == 1.0
        assert scheme.correctable_errors == 0
        assert scheme.name == "w/o ECC"

    def test_encode_decode_is_identity(self, rng):
        scheme = UncodedScheme(8)
        bits = rng.integers(0, 2, size=8, dtype=np.uint8)
        words = pack_bits(bits[np.newaxis, :])
        assert np.array_equal(scheme.encode_batch_packed(words), words)
        assert np.array_equal(decode_packed(scheme, bits).message_bits, bits)

    def test_never_detects_errors(self, rng):
        scheme = UncodedScheme(8)
        result = decode_packed(scheme, rng.integers(0, 2, size=8, dtype=np.uint8))
        assert not result.detected_error
        assert not result.corrected

    def test_rejects_non_positive_length(self):
        with pytest.raises(ConfigurationError):
            UncodedScheme(0)


class TestExtendedHamming:
    def test_secded_72_64_parameters(self):
        code = ExtendedHammingCode(64)
        assert (code.n, code.k) == (72, 64)
        assert "dmin=4" in repr(code)
        assert code.correctable_errors == 1

    def test_secded_8_4_from_full_hamming(self):
        code = ExtendedHammingCode(4)
        assert (code.n, code.k) == (8, 4)
        assert code._inner.name == "H(7,4)"

    def test_every_codeword_has_even_weight(self):
        assert not (_codeword_weights(ExtendedHammingCode(4)) % 2).any()

    def test_corrects_single_errors(self, rng):
        code = ExtendedHammingCode(16)
        message = rng.integers(0, 2, size=16, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for position in range(code.n):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = decode_packed(code, corrupted)
            assert result.corrected
            assert np.array_equal(result.message_bits, message)

    def test_detects_double_errors_without_miscorrecting(self, rng):
        code = ExtendedHammingCode(16)
        message = rng.integers(0, 2, size=16, dtype=np.uint8)
        codeword = encode_reference(code, message)
        corrupted = codeword.copy()
        corrupted[1] ^= 1
        corrupted[9] ^= 1
        result = decode_packed(code, corrupted)
        assert result.detected_error
        assert result.failure
        assert not result.corrected

    def test_double_error_is_flagged_without_raising(self):
        code = ExtendedHammingCode(8)
        corrupted = encode_reference(code, np.zeros((1, 8), dtype=np.uint8))
        corrupted[0, 0] ^= 1
        corrupted[0, 3] ^= 1
        words = pack_bits(corrupted)
        result = code.decode_batch_packed(words)
        assert result.failure.tolist() == [True]
        assert result.num_failures == 1
        assert np.array_equal(result.corrected_words, words)

    def test_parity_bit_only_error_is_corrected(self):
        code = ExtendedHammingCode(8)
        codeword = encode_reference(code, np.ones(8, dtype=np.uint8))
        corrupted = codeword.copy()
        corrupted[-1] ^= 1
        result = decode_packed(code, corrupted)
        assert result.corrected
        assert np.array_equal(result.corrected_codeword, codeword)


class TestSingleParityCheck:
    def test_parameters(self):
        code = SingleParityCheckCode(8)
        assert (code.n, code.k) == (9, 8)
        assert minimum_distance_exhaustive(code.generator_matrix) == 2
        assert code.correctable_errors == 0

    def test_codewords_have_even_weight(self):
        assert not (_codeword_weights(SingleParityCheckCode(4)) % 2).any()

    def test_detects_single_error_but_cannot_correct(self, rng):
        code = SingleParityCheckCode(8)
        codeword = encode_reference(code, rng.integers(0, 2, size=8, dtype=np.uint8))
        corrupted = codeword.copy()
        corrupted[2] ^= 1
        result = decode_packed(code, corrupted)
        assert result.detected_error
        assert result.failure
        assert not result.corrected

    def test_misses_double_errors(self, rng):
        code = SingleParityCheckCode(8)
        codeword = encode_reference(code, rng.integers(0, 2, size=8, dtype=np.uint8))
        corrupted = codeword.copy()
        corrupted[1] ^= 1
        corrupted[4] ^= 1
        result = decode_packed(code, corrupted)
        assert not result.detected_error


class TestRepetitionCode:
    def test_parameters(self):
        code = RepetitionCode(5)
        assert (code.n, code.k) == (5, 1)
        assert minimum_distance_exhaustive(code.generator_matrix) == 5
        assert code.correctable_errors == 2

    def test_rejects_even_or_small_factors(self):
        with pytest.raises(ConfigurationError):
            RepetitionCode(4)
        with pytest.raises(ConfigurationError):
            RepetitionCode(1)

    def test_majority_vote_corrects_up_to_t_errors(self):
        code = RepetitionCode(5)
        codeword = encode_reference(code, np.array([1]))
        corrupted = codeword.copy()
        corrupted[0] ^= 1
        corrupted[3] ^= 1
        result = decode_packed(code, corrupted)
        assert result.corrected
        assert result.message_bits[0] == 1

    def test_majority_vote_fails_beyond_t_errors(self):
        code = RepetitionCode(3)
        codeword = encode_reference(code, np.array([0]))
        corrupted = codeword.copy()
        corrupted[0] ^= 1
        corrupted[1] ^= 1
        result = decode_packed(code, corrupted)
        assert result.message_bits[0] == 1  # majority is now wrong
