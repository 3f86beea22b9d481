"""Packed-word GF(2) substrate: bit vectors as ``uint64`` word matrices.

One-byte-per-bit ``(B, n)`` ``uint8`` matrices would cap the coding,
channel and simulation layers at the memory bandwidth of 8x-inflated data,
so those layers move bits packed.  This module defines the packed
representation and the primitives the rest of the stack builds on:

* a block of ``n`` bits is stored in ``W = ceil(n / 64)`` little-endian
  ``uint64`` words; bit ``i`` of the block lives in byte ``i // 8`` of the
  row's byte image, MSB first within the byte — exactly the layout
  :func:`numpy.packbits` produces, so packing is one ``packbits`` call and
  the byte image of a packed matrix (``.view(np.uint8)``) is directly
  indexable for the 256-entry bit-sliced lookup tables the coders use;
* bits past ``n`` (the padding of the last word) are always zero.  Every
  producer in this module maintains that invariant, which is what makes
  :func:`popcount_rows` a correct Hamming-weight/distance primitive;
* GF(2) arithmetic on packed rows is plain integer bitwise ops: addition is
  ``^``, masking is ``&``, and error injection is a packed XOR mask.

Because packing commutes with XOR (``pack_bits(a ^ b) == pack_bits(a) ^
pack_bits(b)``), codewords, channel corruptions and syndrome corrections
stay packed end to end; :func:`unpack_bits` serves the few consumers that
need per-bit rows (the wide-code encode fallback, the CRC check of residual
payloads).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "WORD_BITS",
    "words_per_block",
    "pack_bits",
    "unpack_bits",
    "packed_byte_view",
    "require_packed_blocks",
    "popcount_rows",
    "prefix_mask",
    "range_mask",
    "bit_weights",
    "byte_lookup_tables",
    "fold_byte_tables",
]

#: Bits per storage word of the packed substrate.
WORD_BITS = 64


def words_per_block(num_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``num_bits`` bits."""
    if num_bits < 0:
        raise ConfigurationError("number of bits cannot be negative")
    return -(-num_bits // WORD_BITS)


def pack_bits(bits) -> np.ndarray:
    """Pack a ``(B, n)`` 0/1 matrix into a ``(B, ceil(n/64))`` uint64 matrix.

    Accepts ``uint8``/bool bit matrices; the padding bits of the last word
    are zero.  A 1-D vector is treated as a single block (packed to shape
    ``(W,)``).
    """
    matrix = np.asarray(bits)
    squeeze = matrix.ndim == 1
    if squeeze:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise ConfigurationError(f"pack_bits expects a (B, n) bit matrix, got shape {matrix.shape}")
    num_blocks, num_bits = matrix.shape
    num_words = words_per_block(num_bits)
    byte_image = np.packbits(matrix.astype(np.uint8, copy=False), axis=1)
    if byte_image.shape[1] != num_words * 8:
        padded = np.zeros((num_blocks, num_words * 8), dtype=np.uint8)
        padded[:, : byte_image.shape[1]] = byte_image
        byte_image = padded
    words = byte_image.view(np.uint64)
    return words[0] if squeeze else words


def unpack_bits(words, num_bits: int) -> np.ndarray:
    """Unpack a ``(B, W)`` uint64 matrix back into a ``(B, num_bits)`` uint8 matrix."""
    matrix = np.ascontiguousarray(words)
    squeeze = matrix.ndim == 1
    if squeeze:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2 or matrix.shape[1] != words_per_block(num_bits):
        raise ConfigurationError(
            f"unpack_bits expected a (B, {words_per_block(num_bits)}) word matrix "
            f"for {num_bits} bits, got shape {np.asarray(words).shape}"
        )
    bits = np.unpackbits(matrix.view(np.uint8), axis=1, count=num_bits)
    return bits[0] if squeeze else bits


def packed_byte_view(words: np.ndarray) -> np.ndarray:
    """The ``(B, W * 8)`` byte image of a packed matrix (no copy when contiguous).

    Byte ``i`` of a row holds bits ``8 i .. 8 i + 7`` of the block MSB-first,
    i.e. exactly what ``np.packbits`` would produce for those bits — which is
    what lets the 256-entry bit-sliced encode/syndrome tables gather straight
    from packed storage without ever materialising unpacked bits.
    """
    return np.ascontiguousarray(words).view(np.uint8)


#: ``np.bitwise_count`` is the native popcount ufunc of NumPy >= 2.0; older
#: releases fall back to a 256-entry per-byte popcount table over the byte
#: image, which is the same values a few times slower.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_BYTE_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1).sum(
    axis=1, dtype=np.uint8
)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(B, W)`` packed matrix (``(B,)`` int64)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return _BYTE_POPCOUNT[packed_byte_view(words)].sum(axis=1, dtype=np.int64)


def prefix_mask(num_bits: int, prefix_bits: int) -> np.ndarray:
    """Packed ``(W,)`` mask selecting the first ``prefix_bits`` of an ``num_bits``-bit block.

    ANDing a packed codeword row with ``prefix_mask(n, k)`` isolates the
    systematic message bits, so residual message errors are one XOR + AND +
    popcount away.
    """
    return range_mask(num_bits, 0, prefix_bits)


def range_mask(num_bits: int, start: int, stop: int) -> np.ndarray:
    """Packed ``(W,)`` mask selecting bit positions ``start <= i < stop``."""
    if not 0 <= start <= stop <= num_bits:
        raise ConfigurationError(
            f"invalid bit range [{start}, {stop}) for a {num_bits}-bit block"
        )
    bits = np.zeros(num_bits, dtype=np.uint8)
    bits[start:stop] = 1
    return pack_bits(bits)


def require_packed_blocks(words, n: int, *, what: str = "block") -> np.ndarray:
    """Validate a ``(B, ceil(n/64))`` uint64 packed matrix (shape and dtype)."""
    matrix = np.asarray(words)
    expected = words_per_block(n)
    if matrix.ndim != 2 or matrix.shape[1] != expected or matrix.dtype != np.uint64:
        raise ConfigurationError(
            f"expected a packed (B, {expected}) uint64 {what} matrix for n={n}, "
            f"got shape {matrix.shape} dtype {matrix.dtype}"
        )
    return matrix


def bit_weights() -> np.ndarray:
    """``(64,)`` uint64 words with word bit ``o`` set, in the substrate's layout.

    Built through :func:`pack_bits` itself, so the in-word bit placement is
    derived from (not assumed about) the byte-image convention — correct on
    any host endianness.
    """
    return pack_bits(np.eye(WORD_BITS, dtype=np.uint8)).ravel()


def byte_lookup_tables(contributions: np.ndarray) -> np.ndarray:
    """Bit-sliced XOR tables: ``(num_bits, ...)`` contributions -> ``(ceil(num_bits/8), 256, ...)``.

    The shared builder behind every 256-entry lookup table in the stack
    (packed encode tables, syndrome keys, BCH power sums, batch CRC): entry
    ``[i, v]`` is the XOR of ``contributions[8 i + j]`` over the bits ``j``
    set in byte value ``v`` (MSB first), matching the packed byte image, so
    any GF(2)-linear map of a block batch reduces to
    :func:`fold_byte_tables` over its bytes.
    """
    num_bits = contributions.shape[0]
    num_bytes = -(-num_bits // 8)
    tables = np.zeros((num_bytes, 256) + contributions.shape[1:], dtype=contributions.dtype)
    values = np.arange(256)
    for byte_index in range(num_bytes):
        start = byte_index * 8
        for bit in range(min(8, num_bits - start)):
            selected = ((values >> (7 - bit)) & 1).astype(bool)
            tables[byte_index, selected] ^= contributions[start + bit]
    return tables


#: Most gathered entries (rows x words per table entry) for which
#: :func:`fold_byte_tables` takes its single-gather branch.  Measured with
#: NumPy 2.4 on a 2-CPU x86-64 host over the call shapes of the workloads:
#: at 16 rows x 64 scalar tables (the per-packet CRC) the single gather is
#: about 12x faster than the per-byte loop, at 16-64 rows x 8-9 tables about
#: 2x; with one or two tables, or with the 8192-row Monte-Carlo batches, the
#: per-byte loop wins.
_GATHER_MAX_ENTRIES = 64


def fold_byte_tables(tables: np.ndarray, byte_image: np.ndarray) -> np.ndarray:
    """XOR-fold table gathers over a batch's byte image.

    Entry ``b`` of the result is the XOR over ``i`` of
    ``tables[i][byte_image[b, i]]``; byte columns past ``tables.shape[0]``
    are ignored.  A batch that is short relative to its table count (at
    most ``8 * (tables - 2)`` gathered entries, and at most
    :data:`_GATHER_MAX_ENTRIES`) is gathered in one fancy index and
    XOR-reduced along the table axis; taller batches run one gather per
    byte, which has less overhead per entry.  Zero-bit inputs (no tables)
    fold to the identity of XOR — all zeros — matching the bit-serial
    references on empty messages.
    """
    num_tables = tables.shape[0]
    num_rows = byte_image.shape[0]
    if num_tables == 0:
        return np.zeros((num_rows,) + tables.shape[2:], dtype=tables.dtype)
    entries = num_rows * math.prod(tables.shape[2:])
    if entries <= min(8 * (num_tables - 2), _GATHER_MAX_ENTRIES):
        return _fold_gather(tables, byte_image)
    return _fold_loop(tables, byte_image)


def _fold_gather(tables: np.ndarray, byte_image: np.ndarray) -> np.ndarray:
    """Short-batch fold: one gather over the first ``tables.shape[0]`` byte columns."""
    num_tables = tables.shape[0]
    flat = tables.reshape((num_tables * 256,) + tables.shape[2:])
    offsets = np.arange(0, num_tables * 256, 256)
    return np.bitwise_xor.reduce(flat[byte_image[:, :num_tables] + offsets], axis=1)


def _fold_loop(tables: np.ndarray, byte_image: np.ndarray) -> np.ndarray:
    """Tall-batch fold: one gather and one XOR per byte column."""
    out = tables[0][byte_image[:, 0]]
    for index in range(1, tables.shape[0]):
        out = out ^ tables[index][byte_image[:, index]]
    return out
