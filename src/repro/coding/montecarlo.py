"""Monte-Carlo estimation of post-decoding bit error rates.

The analytic expressions in :mod:`repro.coding.theory` are approximations;
this module provides the empirical counterpart used by the validation
examples and the property-based tests: push random messages through
encode → binary-symmetric channel → decode and count residual bit errors.

The engine is batched *and packed*: messages are drawn directly as packed
``uint64`` words (:func:`draw_message_words` — same consumed RNG stream as
the historical draw-then-pack path), encoded, corrupted (channel flips
drawn in bounded row blocks by :func:`draw_flip_words`) and decoded
``batch_size`` blocks at a time through the packed coding API
(:meth:`~repro.coding.base.LinearBlockCode.encode_batch_packed` /
:meth:`~repro.coding.base.LinearBlockCode.decode_batch_packed`), and
residual message-bit errors are counted with packed popcounts — the random
stream is consumed exactly like the unpacked pipeline, so results are
bit-identical, just without ever shuttling one-byte-per-bit matrices
between the stages.  Codes without the packed API (duck-typed schemes that
predate it, or non-systematic codes) still run through the unpacked
:func:`~repro.coding.base.encode_blocks` / :func:`~repro.coding.base.decode_blocks`
fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from .base import decode_blocks, decode_blocks_packed, encode_blocks, encode_blocks_packed
from .packed import pack_bits, popcount_rows, prefix_mask, words_per_block

__all__ = [
    "MonteCarloBERResult",
    "estimate_ber_monte_carlo",
    "draw_message_words",
    "draw_flip_words",
    "DEFAULT_BATCH_SIZE",
    "shard_seed_sequences",
    "resolve_rng",
]

#: Default number of blocks simulated per vectorized batch.  Large enough to
#: amortise the per-batch Python overhead, small enough that the working set
#: (a few (B, n) uint8/float matrices) stays cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 8192


def shard_seed_sequences(seed: int, num_shards: int) -> list[np.random.SeedSequence]:
    """Deterministic per-shard seed sequences for a sharded Monte-Carlo sweep.

    Returns the ``num_shards`` children that ``np.random.SeedSequence(seed)``
    would produce with :meth:`~numpy.random.SeedSequence.spawn`, constructed
    directly from their spawn keys.  Because child ``i`` depends only on
    ``(seed, i)`` — never on which process asks, in what order, or how many
    siblings were spawned before it — every shard of a sweep can rebuild its
    own generator independently, which is what makes the parallel experiment
    orchestrator byte-identical to a serial run.
    """
    if num_shards < 0:
        raise ConfigurationError("number of shards cannot be negative")
    return [np.random.SeedSequence(seed, spawn_key=(index,)) for index in range(num_shards)]


def resolve_rng(
    rng: np.random.Generator | None = None,
    seed: int | np.random.SeedSequence | None = None,
) -> np.random.Generator:
    """Build the generator for a simulation from either a ``rng`` or a ``seed``.

    Exactly one of ``rng``/``seed`` may be given; with neither, a fresh
    OS-entropy generator is returned.  Shared by the Monte-Carlo engine, the
    link simulator and the sweep orchestrator so every entry point accepts
    the same seeding vocabulary.
    """
    if rng is not None and seed is not None:
        raise ConfigurationError("pass either rng or seed, not both")
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    return np.random.default_rng()


# --------------------------------------------------------------- packed draws
#
# ``generator.integers(0, 2, size=N, dtype=uint8)`` produces each fair bit by
# Lemire's multiply-shift reduction of one buffered byte — ``(byte * 2) >> 8``,
# i.e. the *top* bit of each byte — consuming the bytes of one ``next_uint32``
# low byte first and discarding the unused remainder of the final word.  A
# full-range ``integers(0, 2**32, size=ceil(N/4), dtype=uint32)`` call consumes
# exactly the same ``next_uint32`` values (bounded generation with a
# power-of-two range never rejects), so the packed message words can be
# assembled straight from those words with bit arithmetic: the generator state
# after the draw — and therefore every later channel draw — is identical to
# the unpacked path's, and so are the drawn bits.  The equivalence is an
# implementation detail of NumPy's bit generator, so it is *verified once at
# runtime* against the unpacked draw (see ``_packed_draw_supported``); if a
# NumPy release ever changes the reduction, the engine falls back to the
# draw-then-pack path and stays bit-exact by construction.

#: In-word bit positions of the four stream bits carried by one uint32 draw
#: (top bit of each byte, low byte first).
_DRAW_BIT_SHIFTS = np.array([7, 15, 23, 31], dtype=np.uint32)
_PACKED_DRAW_OK: bool | None = None


def _draw_words_from_uint32_stream(
    generator: np.random.Generator, num_blocks: int, num_bits: int
) -> np.ndarray:
    """Draw a packed ``(num_blocks, ceil(num_bits/64))`` fair-bit matrix.

    Consumes the generator exactly like
    ``integers(0, 2, size=(num_blocks, num_bits), dtype=uint8)`` (verified by
    :func:`_packed_draw_supported`) but assembles the ``np.packbits`` byte
    image directly from the raw ``uint32`` words — no per-bit byte matrix is
    ever materialised.
    """
    total_bits = num_blocks * num_bits
    raw = generator.integers(0, 1 << 32, size=-(-total_bits // 4), dtype=np.uint32)
    # Compact the four spread stream bits of each word into an MSB-first
    # nibble with one carry-free multiply: the mask isolates bits
    # {7, 15, 23, 31}, the multiplier lands them on bits {38, 37, 36, 35}.
    nibbles = (
        (raw.astype(np.uint64) & np.uint64(0x80808080)) * np.uint64(0x80402010)
        >> np.uint64(35)
    ) & np.uint64(0xF)
    if nibbles.size % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, dtype=np.uint64)])
    # Two consecutive nibbles form one byte of the flat packbits image; two
    # trailing zero bytes cover the (zero) padding reads of the last row.
    flat = np.zeros(nibbles.size // 2 + 2, dtype=np.uint8)
    flat[:-2] = (nibbles[0::2] << np.uint64(4) | nibbles[1::2]).astype(np.uint8)

    num_words = words_per_block(num_bits)
    byte_image = np.zeros((num_blocks, num_words * 8), dtype=np.uint8)
    row_bytes = -(-num_bits // 8)
    if num_bits % 8 == 0:
        byte_image[:, :row_bytes] = flat[: num_blocks * row_bytes].reshape(
            num_blocks, row_bytes
        )
    else:
        # Rows start at arbitrary bit offsets of the flat stream; rebuild each
        # row byte from the two flat bytes that straddle it.
        starts = np.arange(num_blocks, dtype=np.int64) * num_bits
        offsets = (starts % 8).astype(np.uint16)[:, np.newaxis]
        index = (starts // 8)[:, np.newaxis] + np.arange(row_bytes, dtype=np.int64)
        shifted = (flat[index].astype(np.uint16) << np.uint16(8)) | flat[index + 1]
        byte_image[:, :row_bytes] = ((shifted << offsets) >> np.uint16(8)).astype(np.uint8)
        tail = num_bits % 8
        byte_image[:, row_bytes - 1] &= np.uint8((0xFF << (8 - tail)) & 0xFF)
    return byte_image.view(np.uint64)


def _packed_draw_supported() -> bool:
    """One-time runtime check that the uint32 reconstruction matches NumPy."""
    global _PACKED_DRAW_OK
    if _PACKED_DRAW_OK is None:
        probe = 271828182845
        reference = np.random.default_rng(probe)
        bits = reference.integers(0, 2, size=(5, 23), dtype=np.uint8)
        reference_tail = reference.random(4)
        candidate = np.random.default_rng(probe)
        words = _draw_words_from_uint32_stream(candidate, 5, 23)
        _PACKED_DRAW_OK = bool(
            np.array_equal(words, pack_bits(bits))
            and np.array_equal(candidate.random(4), reference_tail)
        )
    return _PACKED_DRAW_OK


def draw_message_words(
    generator: np.random.Generator, num_blocks: int, num_bits: int
) -> np.ndarray:
    """Uniform random packed ``(num_blocks, ceil(num_bits/64))`` message words.

    Bit-exact twin of ``pack_bits(generator.integers(0, 2, size=(num_blocks,
    num_bits), dtype=uint8))`` — same values, same generator state afterwards —
    built packed end to end when the runtime reconstruction check passes, and
    through the unpacked draw otherwise.
    """
    if num_blocks < 0 or num_bits < 1:
        raise ConfigurationError("message draws need num_blocks >= 0 and num_bits >= 1")
    if _packed_draw_supported():
        return _draw_words_from_uint32_stream(generator, num_blocks, num_bits)
    return pack_bits(generator.integers(0, 2, size=(num_blocks, num_bits), dtype=np.uint8))


#: Rows of channel uniforms drawn per block by :func:`draw_flip_words`.
FLIP_DRAW_ROWS = 1024


def draw_flip_words(
    generator: np.random.Generator, num_blocks: int, num_bits: int, raw_ber: float
) -> np.ndarray:
    """Packed BSC error patterns: ``pack_bits(generator.random((num_blocks, num_bits)) < raw_ber)``.

    Same values and same generator state afterwards — every double consumes
    one 64-bit output, so drawing :data:`FLIP_DRAW_ROWS` rows at a time into
    one reused buffer yields the same doubles in the same order.  The bound
    keeps every array under about 1 MB: a whole ``(8192, 72)`` float block is
    4.7 MB, and once glibc frees an mmapped block that large it raises its
    mmap threshold and keeps a share of later blocks on its heap that varies
    from run to run, so the process's peak memory would too.
    """
    row_bytes = -(-num_bits // 8)
    byte_image = np.zeros((num_blocks, words_per_block(num_bits) * 8), dtype=np.uint8)
    uniforms = np.empty((min(num_blocks, FLIP_DRAW_ROWS), num_bits))
    flips = np.empty(uniforms.shape, dtype=bool)
    for start in range(0, num_blocks, FLIP_DRAW_ROWS):
        rows = min(FLIP_DRAW_ROWS, num_blocks - start)
        generator.random(out=uniforms[:rows])
        np.less(uniforms[:rows], raw_ber, out=flips[:rows])
        byte_image[start : start + rows, :row_bytes] = np.packbits(flips[:rows], axis=1)
    return byte_image.view(np.uint64)


@dataclass(frozen=True)
class MonteCarloBERResult:
    """Outcome of a Monte-Carlo BER estimation run."""

    code_name: str
    raw_ber: float
    estimated_ber: float
    bits_simulated: int
    bit_errors: int
    blocks_simulated: int
    block_errors: int

    @property
    def block_error_rate(self) -> float:
        """Fraction of blocks with at least one residual error."""
        if self.blocks_simulated == 0:
            return 0.0
        return self.block_errors / self.blocks_simulated

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval on the estimated BER."""
        if self.bits_simulated == 0:
            return (0.0, 0.0)
        p = self.estimated_ber
        half_width = z * math.sqrt(max(p * (1.0 - p), 1e-300) / self.bits_simulated)
        return (max(0.0, p - half_width), min(1.0, p + half_width))


def estimate_ber_monte_carlo(
    code,
    raw_ber: float,
    *,
    num_blocks: int = 2000,
    rng: np.random.Generator | None = None,
    seed: int | np.random.SeedSequence | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> MonteCarloBERResult:
    """Estimate the post-decoding BER of ``code`` on a BSC.

    Parameters
    ----------
    code:
        Any object following the coding API (``n``, ``k``, batch or scalar
        encode/decode), including :class:`~repro.coding.uncoded.UncodedScheme`.
    raw_ber:
        Crossover probability of the binary symmetric channel.
    num_blocks:
        Number of independent codewords to simulate.
    rng:
        Optional numpy random generator for reproducibility.
    seed:
        Alternative to ``rng``: an integer or :class:`~numpy.random.SeedSequence`
        from which the generator is built (see :func:`resolve_rng`).
    batch_size:
        Number of blocks simulated per vectorized batch; the default keeps
        the per-batch arrays comfortably in memory while leaving the hot
        path entirely inside NumPy.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if num_blocks < 1:
        raise ConfigurationError("at least one block must be simulated")
    if batch_size < 1:
        raise ConfigurationError("batch size must be at least 1")
    generator = resolve_rng(rng, seed)

    bit_errors = 0
    block_errors = 0
    k = code.k
    n = code.n
    # The packed fast path counts residual errors on the systematic message
    # prefix of the corrected codewords, which is only valid for codes that
    # expose the packed API (all in-package codes; they are systematic by
    # construction).  Duck-typed codes keep the unpacked message comparison.
    packed_path = (
        getattr(code, "encode_batch_packed", None) is not None
        and getattr(code, "decode_batch_packed", None) is not None
    )
    message_mask = prefix_mask(n, k) if packed_path else None
    for start in range(0, num_blocks, batch_size):
        count = min(batch_size, num_blocks - start)
        if packed_path:
            # Messages are drawn straight into packed words (same consumed
            # RNG stream as the unpacked draw — see draw_message_words).
            codeword_words = encode_blocks_packed(code, draw_message_words(generator, count, k))
            flip_words = draw_flip_words(generator, count, n, raw_ber)
            decoded = decode_blocks_packed(code, codeword_words ^ flip_words)
            errors_per_block = popcount_rows(
                (decoded.corrected_words ^ codeword_words) & message_mask
            )
        else:
            messages = generator.integers(0, 2, size=(count, k), dtype=np.uint8)
            codewords = encode_blocks(code, messages)
            flips = (generator.random((count, n)) < raw_ber).astype(np.uint8)
            decoded_bits = decode_blocks(code, codewords ^ flips).message_bits
            errors_per_block = np.count_nonzero(decoded_bits != messages, axis=1)
        bit_errors += int(errors_per_block.sum())
        block_errors += int(np.count_nonzero(errors_per_block))
    bits = num_blocks * k
    return MonteCarloBERResult(
        code_name=getattr(code, "name", type(code).__name__),
        raw_ber=float(raw_ber),
        estimated_ber=bit_errors / bits,
        bits_simulated=bits,
        bit_errors=bit_errors,
        blocks_simulated=num_blocks,
        block_errors=block_errors,
    )
