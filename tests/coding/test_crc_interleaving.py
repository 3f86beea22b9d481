"""Tests for CRC checks and block interleaving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.crc import CyclicRedundancyCheck
from repro.coding.interleaving import BlockInterleaver
from repro.exceptions import CodewordLengthError, ConfigurationError


def _frame(crc, message: np.ndarray) -> np.ndarray:
    """One message row followed by its CRC bits, as a ``(1, L + width)`` batch."""
    rows = message[np.newaxis, :]
    return np.concatenate([rows, crc.checksum_batch_bits(rows)], axis=1)


class TestCRC:
    def test_append_then_verify_succeeds(self, rng):
        crc = CyclicRedundancyCheck.from_name("crc16-ccitt")
        message = rng.integers(0, 2, size=120, dtype=np.uint8)
        assert crc.verify_batch(_frame(crc, message)).all()

    def test_single_bit_error_is_detected(self, rng):
        crc = CyclicRedundancyCheck.from_name("crc8")
        message = rng.integers(0, 2, size=64, dtype=np.uint8)
        framed = _frame(crc, message)
        corrupted = np.repeat(framed, framed.shape[1], axis=0)
        corrupted[np.diag_indices(framed.shape[1])] ^= 1
        missed = np.nonzero(crc.verify_batch(corrupted))[0]
        assert missed.size == 0, f"missed errors at {missed.tolist()}"

    def test_burst_errors_shorter_than_width_are_detected(self, rng):
        crc = CyclicRedundancyCheck.from_name("crc16-ccitt")
        message = rng.integers(0, 2, size=128, dtype=np.uint8)
        framed = _frame(crc, message)
        starts = range(0, framed.shape[1] - 16, 7)
        corrupted = np.repeat(framed, len(starts), axis=0)
        for row, start in enumerate(starts):
            corrupted[row, start : start + 13] ^= 1
        assert not crc.verify_batch(corrupted).any()

    def test_checksum_width(self):
        crc = CyclicRedundancyCheck(8, 0x07)
        assert crc.checksum_batch_bits(np.ones((1, 10), dtype=np.uint8)).shape == (1, 8)

    def test_zero_message_has_zero_crc(self):
        crc = CyclicRedundancyCheck(8, 0x07)
        assert not crc.checksum_batch_bits(np.zeros((1, 32), dtype=np.uint8)).any()

    def test_known_crcs_constructible(self):
        for name in ("crc4-itu", "crc8", "crc8-maxim", "crc16-ccitt", "crc16-ibm", "crc32"):
            crc = CyclicRedundancyCheck.from_name(name)
            assert crc.width >= 4

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            CyclicRedundancyCheck.from_name("crc-unknown")

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            CyclicRedundancyCheck(0, 1)
        with pytest.raises(ConfigurationError):
            CyclicRedundancyCheck(8, 0)
        with pytest.raises(ConfigurationError):
            CyclicRedundancyCheck(8, 0x100)

    def test_verify_rejects_short_input(self):
        crc = CyclicRedundancyCheck(8, 0x07)
        with pytest.raises(CodewordLengthError):
            crc.verify_batch(np.zeros((1, 8), dtype=np.uint8))


class TestBlockInterleaver:
    def test_round_trip(self, rng):
        interleaver = BlockInterleaver(depth=16, width=7)
        bits = rng.integers(0, 2, size=interleaver.block_size, dtype=np.uint8)
        assert np.array_equal(interleaver.deinterleave(interleaver.interleave(bits)), bits)

    def test_interleave_is_a_permutation(self, rng):
        interleaver = BlockInterleaver(depth=4, width=5)
        bits = np.arange(20) % 2
        permuted = interleaver.interleave(bits)
        assert sorted(permuted.tolist()) == sorted(bits.tolist())

    def test_burst_is_spread_across_rows(self):
        depth, width = 8, 7
        interleaver = BlockInterleaver(depth=depth, width=width)
        bits = np.zeros(depth * width, dtype=np.uint8)
        transmitted = interleaver.interleave(bits)
        # A burst of `depth` consecutive channel errors...
        transmitted[10 : 10 + depth] ^= 1
        received = interleaver.deinterleave(transmitted)
        # ...lands at most once per original codeword (row).
        per_row_errors = received.reshape(depth, width).sum(axis=1)
        assert per_row_errors.max() <= 1

    def test_block_size(self):
        assert BlockInterleaver(3, 5).block_size == 15

    def test_size_validation(self):
        interleaver = BlockInterleaver(4, 4)
        with pytest.raises(CodewordLengthError):
            interleaver.interleave(np.zeros(15, dtype=np.uint8))
        with pytest.raises(CodewordLengthError):
            interleaver.deinterleave(np.zeros(17, dtype=np.uint8))

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ConfigurationError):
            BlockInterleaver(0, 4)
        with pytest.raises(ConfigurationError):
            BlockInterleaver(4, 0)
