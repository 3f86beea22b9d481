"""Both branches of ``fold_byte_tables`` against a per-byte loop reference.

``fold_byte_tables`` picks one of two shapes from its input: a single
fancy-index gather over the first ``tables.shape[0]`` byte columns for short
batches, and one gather per byte for tall ones.  Whatever the shape, both
branches (and the dispatcher) must equal the plain per-byte XOR fold kept
here, including byte images wider than the table count: the packed image
of an ``n``-bit block has ``8 * ceil(n / 64)`` columns, and a map over its
first ``n - 1`` bits (SECDED's inner syndrome) has ``ceil((n - 1) / 8)``
tables.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.packed import (
    _fold_gather,
    _fold_loop,
    byte_lookup_tables,
    fold_byte_tables,
    pack_bits,
    packed_byte_view,
)

ROWS = (0, 1, 16, 255, 256, 1024, 8192)
TABLE_COUNTS = (1, 2, 8, 9, 64, 66)
TRAILING_SHAPES = ((), (1,), (2,))
FOLDS = {"dispatch": fold_byte_tables, "gather": _fold_gather, "loop": _fold_loop}


def _fold_reference(tables: np.ndarray, byte_image: np.ndarray) -> np.ndarray:
    """XOR of ``tables[i][byte_image[:, i]]`` over every table, one byte at a time."""
    out = np.zeros((byte_image.shape[0],) + tables.shape[2:], dtype=tables.dtype)
    for index in range(tables.shape[0]):
        out ^= tables[index][byte_image[:, index]]
    return out


def _random_case(rng, rows: int, num_tables: int, trailing: tuple, extra_columns: int):
    dtype = np.int64 if trailing == () else np.uint64
    tables = rng.integers(0, 1 << 62, size=(num_tables, 256) + trailing).astype(dtype)
    byte_image = rng.integers(0, 256, size=(rows, num_tables + extra_columns), dtype=np.uint8)
    return tables, byte_image


@pytest.mark.parametrize("trailing", TRAILING_SHAPES, ids=str)
@pytest.mark.parametrize("num_tables", TABLE_COUNTS)
@pytest.mark.parametrize("rows", ROWS)
def test_every_branch_matches_the_per_byte_reference(rows, num_tables, trailing):
    rng = np.random.default_rng(rows * 131 + num_tables * 7 + len(trailing))
    tables, byte_image = _random_case(rng, rows, num_tables, trailing, extra_columns=5)
    expected = _fold_reference(tables, byte_image)
    for name, fold in FOLDS.items():
        result = fold(tables, byte_image)
        assert result.dtype == tables.dtype, name
        assert result.shape == expected.shape, name
        assert np.array_equal(result, expected), name


@pytest.mark.parametrize("num_bits", [57, 63, 71])
@pytest.mark.parametrize("rows", [1, 16, 64, 2048])
def test_packed_blocks_wider_than_the_table_count(num_bits, rows):
    """A GF(2)-linear map of the first ``length`` bits, folded off the full packed image."""
    rng = np.random.default_rng(num_bits * 1000 + rows)
    words = pack_bits(rng.integers(0, 2, size=(rows, num_bits), dtype=np.uint8))
    byte_image = packed_byte_view(words)
    bits = np.unpackbits(byte_image, axis=1)
    for length in (num_bits, num_bits - 1, num_bits - 9):
        contributions = rng.integers(0, 1 << 62, size=(length, 2)).astype(np.uint64)
        tables = byte_lookup_tables(contributions)
        assert tables.shape[0] <= byte_image.shape[1]
        selected = np.where(bits[:, :length, np.newaxis] == 1, contributions, np.uint64(0))
        expected = np.bitwise_xor.reduce(selected, axis=1)
        for name, fold in FOLDS.items():
            assert np.array_equal(fold(tables, byte_image), expected), (name, length)


def test_no_tables_fold_to_zeros():
    tables = np.zeros((0, 256, 2), dtype=np.uint64)
    result = fold_byte_tables(tables, np.zeros((3, 8), dtype=np.uint8))
    assert result.shape == (3, 2)
    assert not result.any()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=300),
    num_tables=st.integers(min_value=1, max_value=70),
    trailing=st.sampled_from(TRAILING_SHAPES),
    extra_columns=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_property(rows, num_tables, trailing, extra_columns, seed):
    tables, byte_image = _random_case(
        np.random.default_rng(seed), rows, num_tables, trailing, extra_columns
    )
    expected = _fold_reference(tables, byte_image)
    for name, fold in FOLDS.items():
        assert np.array_equal(fold(tables, byte_image), expected), name
