"""Multi-word syndrome keys: codes with > 62 parity bits stay on the batch path.

The packed decoder used to key syndromes into a single ``int64``, silently
dropping any code with more than 62 parity bits onto the per-block scalar
reference (a ~10x cliff).  Wide codes now key through the packed words of the
syndrome itself; these tests pin the packed decoder bit-exactly to the
scalar reference across that boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from coding.oracle import decode_blocks_scalar, decode_packed, encode_reference

from repro.coding.base import LinearBlockCode
from repro.coding.packed import pack_bits


def _wide_code(k: int, n: int, seed: int) -> LinearBlockCode:
    """A systematic code with a dense pseudo-random parity block.

    ``minimum_distance=3`` engages the single-error syndrome table, which is
    all the base machinery builds; the tests only require scalar/packed
    equivalence, not optimal codes.
    """
    rng = np.random.default_rng(seed)
    while True:
        parity = rng.integers(0, 2, size=(k, n - k), dtype=np.uint8)
        # Distinct, non-zero parity columns per message bit keep the
        # single-error syndromes unique (a well-formed dmin>=3 table).
        rows = {tuple(row) for row in parity}
        if len(rows) == k and all(row.any() for row in parity):
            break
    generator = np.hstack([np.eye(k, dtype=np.uint8), parity])
    return LinearBlockCode(generator, name=f"wide({n},{k})", minimum_distance=3)


WIDE_GEOMETRIES = [(8, 80), (16, 100), (4, 140)]


@pytest.mark.parametrize("k,n", WIDE_GEOMETRIES)
def test_wide_codes_decode_without_scalar_fallback(k, n):
    code = _wide_code(k, n, seed=k * n)
    assert code.num_parity_bits > 62
    rng = np.random.default_rng(7)
    messages = rng.integers(0, 2, size=(96, k), dtype=np.uint8)
    codewords = encode_reference(code, messages)
    # A mix of clean blocks, single-bit errors (correctable) and heavier
    # patterns (beyond-capability failures).
    received = codewords.copy()
    for row in range(32, 64):
        received[row, rng.integers(0, n)] ^= 1
    for row in range(64, 96):
        flips = rng.choice(n, size=3, replace=False)
        received[row, flips] ^= 1

    reference = decode_blocks_scalar(code, received)
    packed = decode_packed(code, received)

    assert np.array_equal(packed.corrected_codewords, reference.corrected_codewords)
    assert np.array_equal(packed.message_bits, reference.message_bits)
    assert np.array_equal(packed.detected_error, reference.detected_error)
    assert np.array_equal(packed.corrected, reference.corrected)
    assert np.array_equal(packed.failure, reference.failure)


def test_wide_code_single_bit_errors_all_corrected():
    code = _wide_code(8, 80, seed=11)
    message = np.ones(8, dtype=np.uint8)
    codeword = encode_reference(code, message)
    received = np.tile(codeword, (code.n, 1))
    received[np.arange(code.n), np.arange(code.n)] ^= 1
    result = decode_packed(code, received)
    assert result.corrected.all()
    assert not result.failure.any()
    assert np.array_equal(result.message_bits, np.tile(message, (code.n, 1)))


def test_wide_code_flags_uncorrectable_without_raising():
    code = _wide_code(8, 80, seed=11)
    received = encode_reference(code, np.zeros((1, 8), dtype=np.uint8))
    received[0, :5] ^= 1  # weight-5 pattern: outside every table entry
    words = pack_bits(received)
    result = code.decode_batch_packed(words)
    if not result.failure[0]:
        pytest.skip("pattern aliased to a table syndrome for this generator")
    assert np.array_equal(result.corrected_words, words)


def test_wide_code_all_clean_fast_path():
    code = _wide_code(16, 100, seed=5)
    messages = np.random.default_rng(1).integers(0, 2, size=(10, 16), dtype=np.uint8)
    words = code.encode_batch_packed(pack_bits(messages))
    result = code.decode_batch_packed(words)
    assert not result.failure.any()
    assert result.corrected_words is words  # shares the caller's array


def test_syndrome_words_to_key_matches_scalar_key():
    code = _wide_code(8, 80, seed=3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        syndrome = rng.integers(0, 2, size=code.num_parity_bits, dtype=np.uint8)
        packed = pack_bits(syndrome)
        assert code._syndrome_words_to_key(packed) == code._syndrome_key(syndrome)
