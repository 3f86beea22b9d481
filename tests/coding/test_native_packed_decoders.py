"""Native packed SECDED and repetition decoders against the scalar references.

SECDED folds the inner Hamming syndrome keys straight from the packed words
and takes the overall parity from a row popcount; repetition votes from the
row popcount.  Both must reproduce the scalar reference decoders of
``tests/coding/oracle.py`` row by row through ``decode_batch_packed`` —
corrected codewords, messages and the detected/corrected/failure flags
(the first two derived from the words by ``decode_packed``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from coding.oracle import decode_blocks_scalar, decode_packed, encode_reference

from repro.coding.extended_hamming import ExtendedHammingCode
from repro.coding.packed import pack_bits, words_per_block
from repro.coding.repetition import RepetitionCode


def _patterns_up_to_weight(n: int, max_weight: int) -> np.ndarray:
    rows = []
    for weight in range(max_weight + 1):
        for positions in combinations(range(n), weight):
            row = np.zeros(n, dtype=np.uint8)
            row[list(positions)] = 1
            rows.append(row)
    return np.stack(rows)


def _random_patterns(rng, num_blocks: int, n: int, weights: range) -> np.ndarray:
    patterns = np.zeros((num_blocks, n), dtype=np.uint8)
    for row, weight in zip(patterns, rng.choice(list(weights), size=num_blocks)):
        row[rng.choice(n, size=weight, replace=False)] = 1
    return patterns


def _assert_matches_reference(code, received: np.ndarray):
    reference = decode_blocks_scalar(code, received)
    result = decode_packed(code, received)
    for field in ("corrected_codewords", "message_bits", "detected_error", "corrected", "failure"):
        assert np.array_equal(getattr(result, field), getattr(reference, field)), field
    return reference


def _received(code, rng, errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    messages = rng.integers(0, 2, size=(errors.shape[0], code.k), dtype=np.uint8)
    codewords = encode_reference(code, messages)
    return codewords, codewords ^ errors


@pytest.mark.parametrize("message_length", [4, 8])
def test_secded_every_pattern_up_to_weight_three(message_length):
    code = ExtendedHammingCode(message_length)
    rng = np.random.default_rng(message_length)
    errors = _patterns_up_to_weight(code.n, 3)
    _, received = _received(code, rng, errors)
    reference = _assert_matches_reference(code, received)
    weights = errors.sum(axis=1)
    assert reference.corrected[weights == 1].all()
    assert reference.failure[weights == 2].all()


@pytest.mark.parametrize("message_length", [64, 120, 184])
def test_secded_random_patterns_of_weight_one_to_four(message_length):
    """Includes weight-3 miscorrections and, for shortened codes, unknown inner syndromes.

    SECDED(193,184) has a 192-bit inner code, one packed word narrower than
    the codeword itself.
    """
    code = ExtendedHammingCode(message_length)
    rng = np.random.default_rng(message_length + 1)
    errors = _random_patterns(rng, 3000, code.n, range(1, 5))
    codewords, received = _received(code, rng, errors)
    reference = _assert_matches_reference(code, received)
    weights = errors.sum(axis=1)
    miscorrected = reference.corrected & (reference.corrected_codewords != codewords).any(axis=1)
    assert (miscorrected & (weights == 3)).any()
    if message_length == 64:
        # H(71,64) is shortened: some odd-weight patterns land on inner
        # syndromes that no single error produces.
        inner = code._inner
        keys = [inner._syndrome_key(inner.syndrome(row[:-1])) for row in received]
        unknown = np.array([key != 0 and key not in inner._syndrome_dict() for key in keys])
        assert (unknown & (weights % 2 == 1)).any()


@pytest.mark.parametrize("repetitions", [3, 5])
def test_repetition_every_pattern(repetitions):
    code = RepetitionCode(repetitions)
    patterns = _patterns_up_to_weight(repetitions, repetitions)
    assert patterns.shape[0] == 1 << repetitions
    for bit in (0, 1):
        received = patterns ^ np.uint8(bit)
        _assert_matches_reference(code, received)


@pytest.mark.parametrize("code", [ExtendedHammingCode(64), RepetitionCode(3)], ids=str)
def test_empty_batch(code):
    words = np.zeros((0, words_per_block(code.n)), dtype=np.uint64)
    result = code.decode_batch_packed(words)
    assert result.corrected_words.shape == (0, words_per_block(code.n))
    assert result.failure.shape == (0,)


def test_secded_double_error_is_flagged_without_raising():
    code = ExtendedHammingCode(64)
    codeword = encode_reference(code, np.ones((1, code.k), dtype=np.uint8))
    single = codeword.copy()
    single[0, 5] ^= 1
    repaired = code.decode_batch_packed(pack_bits(single))
    assert np.array_equal(repaired.corrected_words, pack_bits(codeword))
    assert not repaired.failure.any()
    double = single.copy()
    double[0, 40] ^= 1
    result = code.decode_batch_packed(pack_bits(double))
    assert result.failure.all()
    assert np.array_equal(result.corrected_words, pack_bits(double))
