"""Stream pins for the Monte-Carlo draws.

``skip_fair_bits`` must leave the generator exactly where the historical
``integers(0, 2, size=N, dtype=uint8)`` message draw leaves it, on the
uint32 fast path and on the fallback: every later draw (channel flips,
fault positions, the next batch) depends on it.  ``draw_flip_words`` must
likewise match one whole ``random((B, n)) < p`` draw while drawing in row
blocks.  The skip relies on NumPy's bounded uint8 draw consuming
``ceil(N/4)`` uint32 words, which is why CI also runs these tests on the
oldest supported NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import montecarlo
from repro.coding.montecarlo import FLIP_DRAW_ROWS, draw_flip_words, skip_fair_bits
from repro.coding.packed import pack_bits
from repro.coding.registry import paper_code_set
from repro.exceptions import ConfigurationError

#: Skip lengths: empty, shorter than one word, word multiples and ragged.
SKIP_LENGTHS = [0, 1, 3, 4, 5, 7, 64, 71, 23 * 17, 8192 * 64, 8192 * 4 + 3]

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def _same_state(first, second) -> bool:
    """Deep equality of two ``bit_generator.state`` values (some hold arrays)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            _same_state(first[key], second[key]) for key in first
        )
    return bool(np.array_equal(first, second))


def test_runtime_check_passes_on_this_numpy(monkeypatch):
    monkeypatch.setattr(montecarlo, "_PACKED_DRAW_OK", None)
    assert montecarlo._packed_draw_supported()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("num_bits", SKIP_LENGTHS)
def test_skip_leaves_the_state_of_the_uint8_draw(bit_generator, num_bits):
    for seed in (0, 1, 20260728):
        reference = np.random.Generator(bit_generator(seed))
        reference.integers(0, 2, size=num_bits, dtype=np.uint8)
        candidate = np.random.Generator(bit_generator(seed))
        skip_fair_bits(candidate, num_bits)
        assert _same_state(candidate.bit_generator.state, reference.bit_generator.state)
        assert np.array_equal(candidate.random(8), reference.random(8))


def test_skip_matches_a_two_dimensional_draw():
    """The historical draws were ``(blocks, bits)`` matrices: one buffered stream."""
    reference = np.random.default_rng(5)
    reference.integers(0, 2, size=(9, 71), dtype=np.uint8)
    candidate = np.random.default_rng(5)
    skip_fair_bits(candidate, 9 * 71)
    assert candidate.bit_generator.state == reference.bit_generator.state


def test_skip_fallback_is_the_uint8_draw(monkeypatch):
    """If the runtime check fails, the skip makes the uint8 draw itself."""
    monkeypatch.setattr(montecarlo, "_PACKED_DRAW_OK", False)
    reference = np.random.default_rng(123)
    reference.integers(0, 2, size=6 * 23, dtype=np.uint8)
    candidate = np.random.default_rng(123)
    skip_fair_bits(candidate, 6 * 23)
    assert candidate.bit_generator.state == reference.bit_generator.state


def test_skip_rejects_a_negative_length():
    with pytest.raises(ConfigurationError):
        skip_fair_bits(np.random.default_rng(0), -1)


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


def test_every_registry_code_still_estimates():
    for code in paper_code_set(64):
        result = montecarlo.estimate_ber_monte_carlo(code, 1e-2, num_blocks=400, seed=3)
        assert result.blocks_simulated == 400
        assert 0.0 <= result.estimated_ber <= 1.0
