"""Bit-exactness pins for the packed end-to-end Monte-Carlo message draws.

``draw_message_words`` must consume the generator exactly like the historical
``integers(0, 2, ...)`` draw-then-pack path: same packed words out, same
generator state afterwards.  ``draw_flip_words`` must likewise match one
whole ``random((B, n)) < p`` draw while drawing in row blocks.  These tests
pin both equivalences for a spread of block geometries (word-aligned,
byte-aligned, and ragged) and pin the Monte-Carlo engine's results against
the pre-packing reference draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import montecarlo
from repro.coding.montecarlo import (
    FLIP_DRAW_ROWS,
    draw_flip_words,
    draw_message_words,
    estimate_ber_monte_carlo,
)
from repro.coding.packed import pack_bits, unpack_bits
from repro.coding.registry import get_code, paper_code_set
from repro.exceptions import ConfigurationError

GEOMETRIES = [
    (1, 1),
    (3, 4),
    (5, 7),
    (17, 23),
    (4, 57),
    (64, 64),
    (33, 71),
    (100, 128),
    (7, 130),
]


@pytest.mark.parametrize("num_blocks,num_bits", GEOMETRIES)
def test_packed_draw_matches_unpacked_draw_and_stream(num_blocks, num_bits):
    for seed in (0, 1, 20260728):
        reference = np.random.default_rng(seed)
        expected = pack_bits(
            reference.integers(0, 2, size=(num_blocks, num_bits), dtype=np.uint8)
        )
        reference_tail = reference.random(8)

        candidate = np.random.default_rng(seed)
        words = draw_message_words(candidate, num_blocks, num_bits)
        assert words.shape == expected.shape
        assert np.array_equal(words, expected)
        # The generator state afterwards is identical, so every later draw
        # (channel noise, fault positions, ...) stays on the same stream.
        assert np.array_equal(candidate.random(8), reference_tail)


def test_packed_draw_padding_bits_are_zero():
    words = draw_message_words(np.random.default_rng(5), 9, 71)
    bits = unpack_bits(words, 71)
    assert bits.shape == (9, 71)
    # Round-tripping through pack_bits reproduces the words exactly, which
    # only holds when every padding bit is zero.
    assert np.array_equal(pack_bits(bits), words)


def test_packed_draw_rejects_bad_geometry():
    generator = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        draw_message_words(generator, -1, 8)
    with pytest.raises(ConfigurationError):
        draw_message_words(generator, 4, 0)


def test_packed_draw_fallback_is_bit_exact(monkeypatch):
    """If the runtime reconstruction check fails, the fallback matches too."""
    monkeypatch.setattr(montecarlo, "_PACKED_DRAW_OK", False)
    reference = np.random.default_rng(123)
    expected = pack_bits(reference.integers(0, 2, size=(6, 23), dtype=np.uint8))
    candidate = np.random.default_rng(123)
    assert np.array_equal(draw_message_words(candidate, 6, 23), expected)


@pytest.mark.parametrize(
    "num_blocks,num_bits",
    [(1, 3), (5, 7), (FLIP_DRAW_ROWS, 64), (FLIP_DRAW_ROWS + 1, 71), (3 * FLIP_DRAW_ROWS - 5, 130)],
)
def test_flip_draw_matches_one_whole_draw_and_stream(num_blocks, num_bits):
    reference = np.random.default_rng(7)
    expected = pack_bits(reference.random((num_blocks, num_bits)) < 0.05)
    reference_tail = reference.random(8)

    candidate = np.random.default_rng(7)
    words = draw_flip_words(candidate, num_blocks, num_bits, 0.05)
    assert words.shape == expected.shape
    assert np.array_equal(words, expected)
    assert np.array_equal(candidate.random(8), reference_tail)


def _reference_estimate(code, raw_ber, *, num_blocks, seed, batch_size=8192):
    """The pre-packing draw path: unpacked messages, then pack."""
    generator = np.random.default_rng(np.random.SeedSequence(seed))
    from repro.coding.base import decode_blocks_packed, encode_blocks_packed
    from repro.coding.packed import popcount_rows, prefix_mask

    bit_errors = 0
    block_errors = 0
    mask = prefix_mask(code.n, code.k)
    for start in range(0, num_blocks, batch_size):
        count = min(batch_size, num_blocks - start)
        messages = generator.integers(0, 2, size=(count, code.k), dtype=np.uint8)
        codeword_words = encode_blocks_packed(code, pack_bits(messages))
        flip_words = pack_bits(generator.random((count, code.n)) < raw_ber)
        decoded = decode_blocks_packed(code, codeword_words ^ flip_words)
        errors = popcount_rows((decoded.corrected_words ^ codeword_words) & mask)
        bit_errors += int(errors.sum())
        block_errors += int(np.count_nonzero(errors))
    return bit_errors, block_errors


@pytest.mark.parametrize("name", ["H(7,4)", "H(71,64)", "SECDED(72,64)"])
def test_estimate_ber_monte_carlo_pinned_to_reference_draws(name):
    code = get_code(name)
    result = estimate_ber_monte_carlo(code, 2e-2, num_blocks=3000, seed=99, batch_size=1024)
    bit_errors, block_errors = _reference_estimate(
        code, 2e-2, num_blocks=3000, seed=99, batch_size=1024
    )
    assert result.bit_errors == bit_errors
    assert result.block_errors == block_errors


@pytest.mark.parametrize("name", ["H(71,64)", "SECDED(72,64)"])
def test_default_batches_draw_flips_in_row_blocks_bit_exactly(name):
    """Batches wider than FLIP_DRAW_ROWS give the one-draw reference's counts."""
    code = get_code(name)
    result = estimate_ber_monte_carlo(code, 2e-2, num_blocks=3000, seed=99)
    bit_errors, block_errors = _reference_estimate(code, 2e-2, num_blocks=3000, seed=99)
    assert result.bit_errors == bit_errors
    assert result.block_errors == block_errors


def test_every_registry_code_still_estimates():
    for code in paper_code_set(64):
        result = estimate_ber_monte_carlo(code, 1e-2, num_blocks=400, seed=3)
        assert result.blocks_simulated == 400
        assert 0.0 <= result.estimated_ber <= 1.0
