"""Batch/scalar equivalence of the vectorized coding engine.

For every code in the registry, the array-at-a-time ``encode_batch`` /
``decode_batch`` path must reproduce the pre-batching per-block reference
decoder bit-exactly — decoded messages, corrected codewords and the
detected/corrected/failure flags — on clean and corrupted blocks alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from coding.oracle import decode_block, decode_block_reference

from repro.coding.base import BatchDecodeResult
from repro.coding.galois import get_field
from repro.coding.registry import available_codes, get_code
from repro.exceptions import CodewordLengthError

# Deterministic per-code seeds (hash() is salted across interpreter runs).
def _seed(name: str) -> int:
    return sum(name.encode()) * 7919


def _corrupted_batch(code, rng, num_blocks=96):
    """Messages, codewords and a received matrix mixing 0..3 errors per block."""
    messages = rng.integers(0, 2, size=(num_blocks, code.k), dtype=np.uint8)
    codewords = code.encode_batch(messages)
    # Mean ~1.6 errors/block exercises the clean, corrected and failure paths.
    flips = (rng.random((num_blocks, code.n)) < 1.6 / code.n).astype(np.uint8)
    return messages, codewords, codewords ^ flips


@pytest.mark.parametrize("name", available_codes())
class TestBatchScalarEquivalence:
    def test_encode_batch_matches_encode_block(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name))
        messages = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
        batch = code.encode_batch(messages) if hasattr(code, "encode_batch") else None
        assert batch is not None, f"{name} lacks encode_batch"
        scalar = np.stack([code.encode_block(message) for message in messages])
        assert np.array_equal(batch, scalar)

    def test_decode_batch_matches_reference_on_corrupted_blocks(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 1)
        _, _, received = _corrupted_batch(code, rng)
        batch = code.decode_batch(received)
        for index, block in enumerate(received):
            reference = decode_block_reference(code, block)
            assert np.array_equal(batch.message_bits[index], reference.message_bits), index
            assert np.array_equal(
                batch.corrected_codewords[index], reference.corrected_codeword
            ), index
            assert bool(batch.detected_error[index]) == reference.detected_error, index
            assert bool(batch.corrected[index]) == reference.corrected, index
            assert bool(batch.failure[index]) == reference.failure, index

    def test_decode_block_wrapper_matches_reference(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 2)
        _, _, received = _corrupted_batch(code, rng, num_blocks=32)
        for block in received:
            wrapped = decode_block(code, block)
            reference = decode_block_reference(code, block)
            assert np.array_equal(wrapped.message_bits, reference.message_bits)
            assert wrapped.detected_error == reference.detected_error
            assert wrapped.corrected == reference.corrected
            assert wrapped.failure == reference.failure

    def test_clean_batch_decodes_to_the_messages(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 3)
        messages, codewords, _ = _corrupted_batch(code, rng, num_blocks=48)
        result = code.decode_batch(codewords)
        assert isinstance(result, BatchDecodeResult)
        assert np.array_equal(result.message_bits, messages)
        assert not result.detected_error.any()
        assert result.num_failures == 0


class TestBatchAPIValidation:
    def test_encode_batch_rejects_wrong_width(self):
        code = get_code("H(7,4)")
        with pytest.raises(CodewordLengthError):
            code.encode_batch(np.zeros((3, 5), dtype=np.uint8))

    def test_decode_batch_rejects_one_dimensional_input(self):
        code = get_code("H(7,4)")
        with pytest.raises(CodewordLengthError):
            code.decode_batch(np.zeros(7, dtype=np.uint8))

    def test_empty_batch_round_trips(self):
        code = get_code("H(71,64)")
        encoded = code.encode_batch(np.zeros((0, 64), dtype=np.uint8))
        assert encoded.shape == (0, 71)
        result = code.decode_batch(encoded)
        assert len(result) == 0
        assert result.message_bits.shape == (0, 64)

    def test_batch_result_indexing_recovers_scalar_results(self):
        code = get_code("H(7,4)")
        received = np.zeros((2, 7), dtype=np.uint8)
        received[1, 3] ^= 1
        result = code.decode_batch(received)
        assert len(result) == 2
        assert not result[0].detected_error
        assert result[1].corrected
        assert np.count_nonzero(result.detected_error) == 1


class TestConstructionMemoization:
    def test_registry_lookups_share_instances(self):
        assert get_code("H(71,64)") is get_code("h(71, 64)")
        assert get_code("BCH(6,2)") is get_code("bch(6,2)")

    def test_galois_fields_are_memoized(self):
        assert get_field(6) is get_field(6)
        assert get_field(6) is not get_field(7)
