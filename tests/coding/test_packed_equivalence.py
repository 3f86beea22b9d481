"""Packed/unpacked bit-exact equivalence of the uint64 substrate.

The packed pipeline (``encode_batch_packed`` / packed channel masks /
packed fault masks / ``decode_batch_packed``) must reproduce the unpacked
batch pipeline bit-exactly: for every registry code, crossed with the
OOK/AWGN channel and both fault-injection models under a fixed seed,
the decoded ``message_bits`` and the ``corrected`` / ``failure`` flags must
be identical.  The batch Berlekamp–Massey + Chien decoder is additionally
pinned against the scalar per-block reference at raw BERs high enough to
exercise beyond-``t`` failure patterns, and the table-driven batch CRC is
pinned against the bit-serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from coding.oracle import decode_block_reference

from repro.channel.awgn import OOKAWGNChannel
from repro.coding.base import decode_blocks_packed, encode_blocks_packed
from repro.coding.bch import BCHCode
from repro.coding.crc import CyclicRedundancyCheck
from repro.coding.packed import (
    pack_bits,
    popcount_rows,
    prefix_mask,
    range_mask,
    unpack_bits,
    words_per_block,
)
from repro.coding.registry import available_codes, get_code
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel


def _seed(name: str) -> int:
    return sum(name.encode()) * 6011


def _corrupted_batch(code, rng, num_blocks=96, mean_errors=1.6):
    messages = rng.integers(0, 2, size=(num_blocks, code.k), dtype=np.uint8)
    codewords = code.encode_batch(messages)
    flips = (rng.random((num_blocks, code.n)) < mean_errors / code.n).astype(np.uint8)
    return messages, codewords, codewords ^ flips


# --------------------------------------------------------------------- substrate
class TestPackedSubstrate:
    @pytest.mark.parametrize("num_bits", [1, 7, 8, 63, 64, 65, 71, 128, 130])
    def test_pack_unpack_round_trip(self, num_bits):
        rng = np.random.default_rng(num_bits)
        bits = rng.integers(0, 2, size=(17, num_bits), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (17, words_per_block(num_bits))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_bits(words, num_bits), bits)

    @pytest.mark.parametrize("num_bits", [7, 64, 71, 130])
    def test_padding_bits_are_zero(self, num_bits):
        words = pack_bits(np.ones((3, num_bits), dtype=np.uint8))
        full = unpack_bits(words, words_per_block(num_bits) * 64)
        assert full[:, :num_bits].all()
        assert not full[:, num_bits:].any()

    def test_packing_commutes_with_xor(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2, size=(11, 71), dtype=np.uint8)
        b = rng.integers(0, 2, size=(11, 71), dtype=np.uint8)
        assert np.array_equal(pack_bits(a ^ b), pack_bits(a) ^ pack_bits(b))

    def test_popcounts_match_bit_sums(self):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=(29, 130), dtype=np.uint8)
        words = pack_bits(bits)
        assert np.array_equal(popcount_rows(words), bits.sum(axis=1, dtype=np.int64))

    def test_prefix_and_range_masks(self):
        mask = prefix_mask(71, 64)
        bits = unpack_bits(mask[np.newaxis, :], 71)[0]
        assert bits[:64].all() and not bits[64:].any()
        window = unpack_bits(range_mask(130, 65, 80)[np.newaxis, :], 130)[0]
        assert window[65:80].all()
        assert window.sum() == 15


# ------------------------------------------------------------- coding equivalence
@pytest.mark.parametrize("name", available_codes())
class TestPackedCodingEquivalence:
    def test_encode_batch_packed_matches_unpacked(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name))
        messages = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
        unpacked = code.encode_batch(messages)
        packed = encode_blocks_packed(code, pack_bits(messages))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_bits(packed, code.n), unpacked)

    def test_decode_batch_packed_matches_unpacked(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 1)
        _, _, received = _corrupted_batch(code, rng)
        unpacked = code.decode_batch(received)
        packed = decode_blocks_packed(code, pack_bits(received)).unpack()
        assert np.array_equal(packed.message_bits, unpacked.message_bits)
        assert np.array_equal(packed.corrected_codewords, unpacked.corrected_codewords)
        assert np.array_equal(packed.detected_error, unpacked.detected_error)
        assert np.array_equal(packed.corrected, unpacked.corrected)
        assert np.array_equal(packed.failure, unpacked.failure)

    def test_empty_batch_round_trips_through_the_packed_dispatchers(self, name):
        # Zero blocks once crashed the batched decode of an empty transfer.
        code = get_code(name)
        words = encode_blocks_packed(code, pack_bits(np.zeros((0, code.k), dtype=np.uint8)))
        assert words.shape[0] == 0
        result = decode_blocks_packed(code, words).unpack()
        assert len(result) == 0
        assert result.message_bits.shape == (0, code.k)
        assert not result.failure.any()

    def test_channel_pipeline_bit_exact(self, name):
        """Same seed -> packed and unpacked channel pipelines agree bit-exactly."""
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 2)
        messages = rng.integers(0, 2, size=(48, code.k), dtype=np.uint8)
        codewords = code.encode_batch(messages)

        def make_channel(seed):
            return OOKAWGNChannel(
                2e-5, crosstalk_power_w=1e-6, rng=np.random.default_rng(seed)
            )

        unpacked_channel = make_channel(_seed(name) + 3)
        packed_channel = make_channel(_seed(name) + 3)
        received = unpacked_channel.transmit_batch(codewords)
        received_words = packed_channel.transmit_batch_packed(pack_bits(codewords), n=code.n)
        assert np.array_equal(pack_bits(received), received_words)

        unpacked = code.decode_batch(received)
        packed = decode_blocks_packed(code, received_words).unpack()
        assert np.array_equal(packed.message_bits, unpacked.message_bits)
        assert np.array_equal(packed.corrected, unpacked.corrected)
        assert np.array_equal(packed.failure, unpacked.failure)

    @pytest.mark.parametrize("model_kind", ["independent", "burst"])
    def test_fault_model_pipeline_bit_exact(self, name, model_kind):
        """Same seed -> packed and unpacked fault injection agree bit-exactly."""
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 4)
        messages = rng.integers(0, 2, size=(48, code.k), dtype=np.uint8)
        codewords = code.encode_batch(messages)

        def make_model(seed):
            if model_kind == "independent":
                return IndependentErrorModel(0.02, rng=np.random.default_rng(seed))
            return BurstErrorModel(
                good_error_probability=1e-3,
                bad_error_probability=0.4,
                good_to_bad_probability=0.02,
                bad_to_good_probability=0.2,
                rng=np.random.default_rng(seed),
            )

        corrupted = make_model(_seed(name) + 5).apply(codewords)
        corrupted_words = pack_bits(codewords) ^ make_model(_seed(name) + 5).error_mask_packed(
            codewords.shape[0], n=code.n
        )
        assert np.array_equal(pack_bits(corrupted), corrupted_words)

        unpacked = code.decode_batch(corrupted)
        packed = decode_blocks_packed(code, corrupted_words).unpack()
        assert np.array_equal(packed.message_bits, unpacked.message_bits)
        assert np.array_equal(packed.corrected, unpacked.corrected)
        assert np.array_equal(packed.failure, unpacked.failure)


class TestPackedErrorMasks:
    @pytest.mark.parametrize("model_kind", ["independent", "burst"])
    def test_error_mask_packed_matches_error_pattern(self, model_kind):
        def make_model(seed):
            if model_kind == "independent":
                return IndependentErrorModel(0.01, rng=np.random.default_rng(seed))
            return BurstErrorModel(rng=np.random.default_rng(seed))

        pattern = make_model(31).error_pattern(64 * 71)
        mask = make_model(31).error_mask_packed(64, n=71)
        assert np.array_equal(pack_bits(pattern.reshape(64, 71)), mask)

    def test_error_mask_packed_clean_draw_is_zero(self):
        model = IndependentErrorModel(0.0, rng=np.random.default_rng(0))
        mask = model.error_mask_packed(8, n=71)
        assert mask.shape == (8, 2)
        assert not mask.any()

    def test_sparse_error_positions_distribution(self):
        """Sparse binomial thinning matches the dense Bernoulli field statistically."""
        model = IndependentErrorModel(5e-4, rng=np.random.default_rng(77))
        totals = [model.sparse_error_positions(10_000).size for _ in range(400)]
        mean = np.mean(totals)
        assert mean == pytest.approx(5.0, rel=0.25)
        positions = model.sparse_error_positions(10_000)
        assert positions.size == np.unique(positions).size

    def test_sparse_error_positions_zero_probability(self):
        model = IndependentErrorModel(0.0, rng=np.random.default_rng(1))
        assert model.sparse_error_positions(4096).size == 0


# ------------------------------------------------------------------- batch BM
@pytest.mark.parametrize("parameters", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
class TestBatchBerlekampMassey:
    def test_matches_reference_at_failure_inducing_ber(self, parameters):
        """Batch BM + Chien vs the scalar reference, with >t-error failures."""
        m, t = parameters
        code = BCHCode(m, t)
        rng = np.random.default_rng(m * 100 + t)
        # Mean t + 1.5 errors/block guarantees a healthy mix of clean,
        # correctable and beyond-capability (failure) patterns.
        _, _, received = _corrupted_batch(code, rng, num_blocks=256, mean_errors=t + 1.5)
        batch = code.decode_batch(received)
        failures = 0
        for index, block in enumerate(received):
            reference = decode_block_reference(code, block)
            assert np.array_equal(batch.message_bits[index], reference.message_bits), index
            assert np.array_equal(
                batch.corrected_codewords[index], reference.corrected_codeword
            ), index
            assert bool(batch.detected_error[index]) == reference.detected_error, index
            assert bool(batch.corrected[index]) == reference.corrected, index
            assert bool(batch.failure[index]) == reference.failure, index
            failures += int(reference.failure)
        assert failures > 0, "workload never exceeded the correction capability"

    def test_clean_blocks_decode_clean(self, parameters):
        m, t = parameters
        code = BCHCode(m, t)
        rng = np.random.default_rng(m * 200 + t)
        messages = rng.integers(0, 2, size=(32, code.k), dtype=np.uint8)
        result = code.decode_batch(code.encode_batch(messages))
        assert np.array_equal(result.message_bits, messages)
        assert not result.detected_error.any()


# ------------------------------------------------------------------- batch CRC
@pytest.mark.parametrize("crc_name", ["crc4-itu", "crc8", "crc16-ccitt", "crc32"])
class TestBatchCRC:
    def test_checksum_batch_matches_bit_serial(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()))
        for length in (1, 5, 8, 13, 512, 529):
            messages = rng.integers(0, 2, size=(23, length), dtype=np.uint8)
            batch = crc.checksum_batch_bits(messages)
            scalar = np.stack([crc.checksum(message) for message in messages])
            assert np.array_equal(batch, scalar), length

    def test_batch_reduces_integer_entries_modulo_two_like_the_scalar_path(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()) + 2)
        fixed = np.array([[0, 1, 2, 1, 0, 1, 1, 0]])
        for messages in (fixed, rng.integers(-3, 4, size=(23, 37))):
            batch = crc.checksum_batch_bits(messages)
            scalar = np.stack([crc.checksum(message) for message in messages])
            assert np.array_equal(batch, scalar)
            protected = np.concatenate([messages, batch], axis=1)
            protected[:, -1] += 2
            assert crc.verify_batch(protected).all()
            assert all(crc.verify(row) for row in protected)

    def test_empty_message_matches_bit_serial_zero_register(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        batch = crc.checksum_batch_bits(np.zeros((3, 0), dtype=np.uint8))
        scalar = crc.checksum(np.zeros(0, dtype=np.uint8))
        assert np.array_equal(batch, np.tile(scalar, (3, 1)))

    def test_verify_batch_matches_scalar_verify(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()) + 1)
        messages = rng.integers(0, 2, size=(40, 96), dtype=np.uint8)
        protected = np.concatenate([messages, crc.checksum_batch_bits(messages)], axis=1)
        flips = (rng.random(protected.shape) < 0.02).astype(np.uint8)
        corrupted = protected ^ flips
        batch = crc.verify_batch(corrupted)
        scalar = np.array([crc.verify(row) for row in corrupted])
        assert np.array_equal(batch, scalar)
        assert crc.verify_batch(protected).all()
