"""Property-based tests (hypothesis) on the coding substrate invariants."""

from __future__ import annotations

import numpy as np
import pytest
from coding.oracle import decode_packed, encode_reference
from hypothesis import given, settings, strategies as st

from repro.coding.crc import CyclicRedundancyCheck
from repro.coding.extended_hamming import ExtendedHammingCode
from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.coding.interleaving import BlockInterleaver
from repro.coding.packed import pack_bits, unpack_bits
from repro.coding.theory import hamming_output_ber, output_ber, raw_ber_for_target_output_ber
from repro.coding.uncoded import UncodedScheme

# Reusable strategies -------------------------------------------------------------
_bits = st.integers(min_value=0, max_value=1)


def _message(k: int):
    return st.lists(_bits, min_size=k, max_size=k).map(lambda bits: np.array(bits, dtype=np.uint8))


class TestHammingProperties:
    @given(message=_message(4))
    def test_encode_decode_identity_h74(self, message):
        code = HammingCode(3)
        codeword = code.encode_batch_packed(pack_bits(message[np.newaxis, :]))
        result = code.decode_batch_packed(codeword)
        assert np.array_equal(unpack_bits(result.corrected_words, code.n)[0, : code.k], message)

    @given(message=_message(4), position=st.integers(min_value=0, max_value=6))
    def test_single_error_always_corrected_h74(self, message, position):
        code = HammingCode(3)
        codeword = encode_reference(code, message)
        codeword[position] ^= 1
        result = decode_packed(code, codeword)
        assert np.array_equal(result.message_bits, message)

    @given(message=_message(11))
    def test_encode_is_linear_h1511(self, message):
        code = HammingCode(4)
        words = code.encode_batch_packed(pack_bits(message[np.newaxis, :]))
        zero = code.encode_batch_packed(np.zeros_like(pack_bits(message[np.newaxis, :])))
        # c(m) + c(0) == c(m) because encoding is linear and c(0) = 0.
        assert np.array_equal(words ^ zero, words)

    @given(a=_message(4), b=_message(4))
    def test_sum_of_codewords_is_a_codeword(self, a, b):
        code = HammingCode(3)
        combined = code.encode_batch_packed(pack_bits(np.stack([a, b])))
        assert not code.syndrome(unpack_bits(combined[:1] ^ combined[1:], code.n)[0]).any()

    @settings(max_examples=25)
    @given(message=_message(64), position=st.integers(min_value=0, max_value=70))
    def test_single_error_always_corrected_h7164(self, message, position):
        code = ShortenedHammingCode(64)
        codeword = encode_reference(code, message)
        codeword[position] ^= 1
        result = decode_packed(code, codeword)
        assert np.array_equal(result.message_bits, message)


class TestSecdedProperties:
    @settings(max_examples=30)
    @given(
        message=_message(16),
        first=st.integers(min_value=0, max_value=21),
        second=st.integers(min_value=0, max_value=21),
    )
    def test_double_errors_never_silently_accepted(self, message, first, second):
        code = ExtendedHammingCode(16)
        codeword = encode_reference(code, message)
        corrupted = codeword.copy()
        corrupted[first] ^= 1
        corrupted[second] ^= 1
        result = decode_packed(code, corrupted)
        if first == second:
            assert np.array_equal(result.message_bits, message)
        else:
            assert result.detected_error


class TestUncodedProperties:
    @given(message=_message(16))
    def test_identity(self, message):
        scheme = UncodedScheme(16)
        assert np.array_equal(decode_packed(scheme, message).message_bits, message)


class TestInterleaverProperties:
    @given(
        data=st.data(),
        depth=st.integers(min_value=1, max_value=12),
        width=st.integers(min_value=1, max_value=12),
    )
    def test_round_trip_for_any_geometry(self, data, depth, width):
        interleaver = BlockInterleaver(depth, width)
        bits = data.draw(_message(depth * width))
        assert np.array_equal(interleaver.deinterleave(interleaver.interleave(bits)), bits)


class TestCRCProperties:
    @settings(max_examples=40)
    @given(message=_message(40), position=st.integers(min_value=0, max_value=47))
    def test_any_single_bit_flip_detected(self, message, position):
        crc = CyclicRedundancyCheck.from_name("crc8")
        framed = np.concatenate([message, crc.checksum_batch_bits(message[np.newaxis, :])[0]])
        framed[position] ^= 1
        assert not crc.verify_batch(framed[np.newaxis, :])[0]


class TestTheoryProperties:
    @given(raw=st.floats(min_value=1e-9, max_value=0.05))
    def test_hamming_output_never_exceeds_raw(self, raw):
        assert hamming_output_ber(raw, 7) <= raw

    @given(raw_a=st.floats(min_value=1e-9, max_value=0.05), raw_b=st.floats(min_value=1e-9, max_value=0.05))
    def test_hamming_output_is_monotonic(self, raw_a, raw_b):
        low, high = sorted((raw_a, raw_b))
        assert hamming_output_ber(low, 7) <= hamming_output_ber(high, 7) + 1e-18

    @settings(max_examples=30)
    @given(target=st.floats(min_value=1e-14, max_value=1e-4))
    def test_inversion_round_trip(self, target):
        code = HammingCode(3)
        raw = raw_ber_for_target_output_ber(code, target)
        assert output_ber(code, raw) == pytest.approx(target, rel=1e-4)
