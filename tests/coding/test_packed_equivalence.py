"""Packed coding, channel and fault paths against the per-bit test oracles.

The packed pipeline (``encode_batch_packed`` / packed channel decisions /
packed fault masks / ``decode_batch_packed``) is the only coding API.  For
every registry code it must reproduce the independent references
bit-exactly: the generator product and the per-block reference decoders of
``tests/coding/oracle.py`` (corrected codewords, messages and the
failure flag), the per-bit channel of
``tests/channel/oracle.py`` and the flip patterns of
``tests/simulation/oracle.py`` under a fixed seed.  The batch
Berlekamp–Massey + Chien decoder is additionally pinned against the scalar
reference at raw BERs high enough to exercise beyond-``t`` failure
patterns, and the table-driven batch CRC against the bit-serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from channel.oracle import transmit_reference
from coding.oracle import (
    crc_checksum_reference,
    crc_verify_reference,
    decode_blocks_scalar,
    encode_reference,
)
from simulation.oracle import independent_error_pattern_reference

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
from repro.exceptions import CodewordLengthError
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel


# Deterministic per-code seeds (hash() is salted across interpreter runs).
def _seed(name: str) -> int:
    return sum(name.encode()) * 6011


def _corrupted_batch(code, rng, num_blocks=96, mean_errors=1.6):
    """Messages, codewords and a received matrix; mean ~1.6 errors/block by default.

    That mix exercises the clean, corrected and failure paths.
    """
    messages = rng.integers(0, 2, size=(num_blocks, code.k), dtype=np.uint8)
    codewords = encode_reference(code, messages)
    flips = (rng.random((num_blocks, code.n)) < mean_errors / code.n).astype(np.uint8)
    return messages, codewords, codewords ^ flips


def _error_pattern(model, num_bits: int) -> np.ndarray:
    """The unpacked flip vector of either fault model (oracle or burst scan)."""
    if isinstance(model, IndependentErrorModel):
        return independent_error_pattern_reference(model, num_bits)
    return model.error_pattern(num_bits)


def _assert_matches_reference(code, received: np.ndarray):
    """The packed decode of ``received`` equals the per-block reference, field by field."""
    result = decode_blocks_packed(code, pack_bits(received))
    reference = decode_blocks_scalar(code, received)
    assert result.corrected_words.dtype == np.uint64
    assert np.array_equal(result.corrected_words, pack_bits(reference.corrected_codewords))
    assert np.array_equal(result.failure, reference.failure)
    # The reference's other two flags follow from the words, as
    # ``decode_packed`` derives them: a repair changes the block, a failure
    # keeps it.
    changed = (reference.corrected_codewords != received).any(axis=1)
    assert np.array_equal(reference.corrected, changed & ~reference.failure)
    assert np.array_equal(reference.detected_error, changed | reference.failure)
    return reference


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
    def test_encode_batch_packed_matches_generator_product(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name))
        messages = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
        packed = encode_blocks_packed(code, pack_bits(messages))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_bits(packed, code.n), encode_reference(code, messages))

    def test_decode_batch_packed_matches_reference_on_corrupted_blocks(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 1)
        _, _, received = _corrupted_batch(code, rng)
        _assert_matches_reference(code, received)

    def test_single_block_batches_match_reference(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 2)
        _, _, received = _corrupted_batch(code, rng, num_blocks=32)
        for block in received:
            _assert_matches_reference(code, block[np.newaxis, :])

    def test_clean_batch_decodes_to_the_messages(self, name):
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 3)
        messages, codewords, _ = _corrupted_batch(code, rng, num_blocks=48)
        result = decode_blocks_packed(code, pack_bits(codewords))
        assert np.array_equal(unpack_bits(result.corrected_words, code.n)[:, : code.k], messages)
        assert np.array_equal(result.corrected_words, pack_bits(codewords))
        assert result.num_failures == 0

    def test_empty_batch_round_trips_through_the_packed_dispatchers(self, name):
        # Zero blocks once crashed the batched decode of an empty transfer.
        code = get_code(name)
        words = encode_blocks_packed(code, pack_bits(np.zeros((0, code.k), dtype=np.uint8)))
        assert words.shape == (0, words_per_block(code.n))
        result = decode_blocks_packed(code, words)
        assert len(result) == 0
        assert result.corrected_words.shape == (0, words_per_block(code.n))
        assert not result.failure.any()

    def test_channel_pipeline_bit_exact(self, name):
        """Same seed -> the packed channel makes the per-bit reference's decisions."""
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 2)
        messages = rng.integers(0, 2, size=(48, code.k), dtype=np.uint8)
        codewords = encode_reference(code, messages)

        def make_channel(seed):
            return OOKAWGNChannel(
                2e-5, crosstalk_power_w=1e-6, rng=np.random.default_rng(seed)
            )

        received = transmit_reference(make_channel(_seed(name) + 3), codewords)
        received_words = make_channel(_seed(name) + 3).transmit_batch_packed(
            pack_bits(codewords), n=code.n
        )
        assert np.array_equal(pack_bits(received), received_words)
        _assert_matches_reference(code, received)

    @pytest.mark.parametrize("model_kind", ["independent", "burst"])
    def test_fault_model_pipeline_bit_exact(self, name, model_kind):
        """Same seed -> the packed fault mask flips the reference pattern's bits."""
        code = get_code(name)
        rng = np.random.default_rng(_seed(name) + 4)
        messages = rng.integers(0, 2, size=(48, code.k), dtype=np.uint8)
        codewords = encode_reference(code, messages)

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

        pattern = _error_pattern(make_model(_seed(name) + 5), codewords.size)
        corrupted = codewords ^ pattern.reshape(codewords.shape)
        corrupted_words = pack_bits(codewords) ^ make_model(_seed(name) + 5).error_mask_packed(
            codewords.shape[0], n=code.n
        )
        assert np.array_equal(pack_bits(corrupted), corrupted_words)
        _assert_matches_reference(code, corrupted)


@pytest.mark.parametrize("name", available_codes())
class TestPackedAPIValidation:
    def test_encode_rejects_a_wrong_word_count(self, name):
        code = get_code(name)
        with pytest.raises(CodewordLengthError):
            code.encode_batch_packed(np.zeros((3, words_per_block(code.k) + 1), dtype=np.uint64))

    def test_decode_rejects_a_wrong_word_count(self, name):
        code = get_code(name)
        with pytest.raises(CodewordLengthError):
            code.decode_batch_packed(np.zeros((3, words_per_block(code.n) + 1), dtype=np.uint64))

    def test_decode_rejects_one_dimensional_input(self, name):
        code = get_code(name)
        with pytest.raises(CodewordLengthError):
            code.decode_batch_packed(np.zeros(words_per_block(code.n), dtype=np.uint64))

    def test_encode_and_decode_reject_unpacked_bits(self, name):
        code = get_code(name)
        with pytest.raises(CodewordLengthError):
            code.encode_batch_packed(np.zeros((3, words_per_block(code.k)), dtype=np.uint8))
        with pytest.raises(CodewordLengthError):
            code.decode_batch_packed(np.zeros((3, words_per_block(code.n)), dtype=np.int64))


class TestPackedErrorMasks:
    @pytest.mark.parametrize("model_kind", ["independent", "burst"])
    def test_error_mask_packed_matches_error_pattern(self, model_kind):
        def make_model(seed):
            if model_kind == "independent":
                return IndependentErrorModel(0.01, rng=np.random.default_rng(seed))
            return BurstErrorModel(rng=np.random.default_rng(seed))

        pattern = _error_pattern(make_model(31), 64 * 71)
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
        reference = _assert_matches_reference(code, received)
        assert reference.failure.any(), "workload never exceeded the correction capability"

    def test_clean_blocks_decode_clean(self, parameters):
        m, t = parameters
        code = BCHCode(m, t)
        rng = np.random.default_rng(m * 200 + t)
        messages = rng.integers(0, 2, size=(32, code.k), dtype=np.uint8)
        words = code.encode_batch_packed(pack_bits(messages))
        result = code.decode_batch_packed(words)
        assert np.array_equal(result.corrected_words, words)
        assert not result.failure.any()


# ------------------------------------------------------------------- batch CRC
@pytest.mark.parametrize("crc_name", ["crc4-itu", "crc8", "crc16-ccitt", "crc32"])
class TestBatchCRC:
    def test_checksum_batch_matches_bit_serial(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()))
        for length in (1, 5, 8, 13, 512, 529):
            messages = rng.integers(0, 2, size=(23, length), dtype=np.uint8)
            batch = crc.checksum_batch_bits(messages)
            scalar = np.stack([crc_checksum_reference(crc, message) for message in messages])
            assert np.array_equal(batch, scalar), length

    def test_batch_reduces_integer_entries_modulo_two_like_the_bit_serial_reference(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()) + 2)
        fixed = np.array([[0, 1, 2, 1, 0, 1, 1, 0]])
        for messages in (fixed, rng.integers(-3, 4, size=(23, 37))):
            batch = crc.checksum_batch_bits(messages)
            scalar = np.stack([crc_checksum_reference(crc, message) for message in messages])
            assert np.array_equal(batch, scalar)
            protected = np.concatenate([messages, batch], axis=1)
            protected[:, -1] += 2
            assert crc.verify_batch(protected).all()
            assert all(crc_verify_reference(crc, row) for row in protected)

    def test_empty_message_matches_bit_serial_zero_register(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        batch = crc.checksum_batch_bits(np.zeros((3, 0), dtype=np.uint8))
        scalar = crc_checksum_reference(crc, np.zeros(0, dtype=np.uint8))
        assert np.array_equal(batch, np.tile(scalar, (3, 1)))

    def test_verify_batch_matches_bit_serial_verify(self, crc_name):
        crc = CyclicRedundancyCheck.from_name(crc_name)
        rng = np.random.default_rng(sum(crc_name.encode()) + 1)
        messages = rng.integers(0, 2, size=(40, 96), dtype=np.uint8)
        protected = np.concatenate([messages, crc.checksum_batch_bits(messages)], axis=1)
        flips = (rng.random(protected.shape) < 0.02).astype(np.uint8)
        corrupted = protected ^ flips
        batch = crc.verify_batch(corrupted)
        scalar = np.array([crc_verify_reference(crc, row) for row in corrupted])
        assert np.array_equal(batch, scalar)
        assert crc.verify_batch(protected).all()
