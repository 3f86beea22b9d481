"""Monte-Carlo estimation of post-decoding bit error rates.

The analytic expressions in :mod:`repro.coding.theory` are approximations;
this module provides the empirical counterpart used by the validation
examples and the property-based tests: random messages through encode →
binary-symmetric channel → decode, counting residual message-bit errors.

The messages never need to be built.  Every registry code is linear and
decoded from its syndrome (majority vote for repetition, which is the same
thing for an odd number of copies), and a BSC flips bits independently of
the values they carry, so the residual error of a codeword ``c`` under the
error pattern ``e`` is ``decode(c ⊕ e) ⊕ c == decode(e)``: the outcome of
any codeword is the outcome of the all-zero codeword.  The estimator
therefore decodes the packed channel flip words (:func:`draw_flip_words`)
directly, :data:`DEFAULT_BATCH_SIZE` blocks at a time, and counts the set message bits
of the corrected words with packed popcounts.

The random stream stays the one the encode round trip consumed: each batch
first skips the bits of the message draw it replaces
(:func:`skip_fair_bits`), then draws its flips, so the estimates are
bit-identical to encoding real random messages.  The equivalence is pinned
by ``tests/coding/test_codeword_independence.py`` against the round-trip
estimator of ``tests/coding/oracle.py``.

The argument needs the channel's errors to be independent of the
codeword.  The bit-level AWGN link simulator
(:mod:`repro.simulation.linksim`) does not qualify — a transmitted '1' and
'0' meet different decision events on the same noise sample — so it keeps
encoding real codewords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
# ``encode_blocks_packed`` is not called here; it stays bound because
# perfbench's traced run patches both dispatchers by name in this module.
from .base import decode_blocks_packed, encode_blocks_packed  # noqa: F401
from .packed import popcount_rows, prefix_mask, words_per_block

__all__ = [
    "MonteCarloBERResult",
    "estimate_ber_monte_carlo",
    "skip_fair_bits",
    "draw_flip_words",
    "DEFAULT_BATCH_SIZE",
    "resolve_rng",
]

#: Default number of blocks simulated per vectorized batch.  Large enough to
#: amortise the per-batch Python overhead, small enough that the working set
#: (a few (B, n) uint8/float matrices) stays cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 8192

#: Normal quantile of :meth:`MonteCarloBERResult.confidence_interval` (95%).
_CONFIDENCE_Z = 1.96


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


# ------------------------------------------------------------ stream skipping
#
# ``generator.integers(0, 2, size=N, dtype=uint8)`` produces each fair bit by
# Lemire's multiply-shift reduction of one buffered byte, consuming the four
# bytes of one ``next_uint32`` at a time and discarding the unused remainder
# of the final word.  A full-range ``integers(0, 2**32, size=ceil(N/4),
# dtype=uint32)`` call consumes exactly the same ``next_uint32`` values
# (bounded generation with a power-of-two range never rejects), so it leaves
# the generator in the same state at a quarter of the draws.  The equivalence
# is an implementation detail of NumPy's bit generator, so it is *verified
# once at runtime* by comparing the generator states after both draws (see
# ``_packed_draw_supported``); if a NumPy release ever changes the
# reduction, :func:`skip_fair_bits` makes the uint8 draw itself.

_PACKED_DRAW_OK: bool | None = None


def _packed_draw_supported() -> bool:
    """One-time runtime check that a uint32 draw of ``ceil(N/4)`` words skips ``N`` fair bits."""
    global _PACKED_DRAW_OK
    if _PACKED_DRAW_OK is None:
        probe = 271828182845
        reference = np.random.default_rng(probe)
        reference.integers(0, 2, size=115, dtype=np.uint8)
        candidate = np.random.default_rng(probe)
        candidate.integers(0, 1 << 32, size=29, dtype=np.uint32)
        _PACKED_DRAW_OK = candidate.bit_generator.state == reference.bit_generator.state
    return _PACKED_DRAW_OK


def skip_fair_bits(generator: np.random.Generator, num_bits: int) -> None:
    """Advance ``generator`` past ``integers(0, 2, size=num_bits, dtype=uint8)``.

    Leaves the generator in the state that draw would, without making the
    bits: outcomes computed on the all-zero codeword still consume the
    random stream of the message or payload draw they replace, so every
    later draw (channel flips, fault positions, the next batch) is the one
    the encode round trip saw.
    """
    if num_bits < 0:
        raise ConfigurationError("cannot skip a negative number of bits")
    if _packed_draw_supported():
        generator.integers(0, 1 << 32, size=-(-num_bits // 4), dtype=np.uint32)
    else:
        generator.integers(0, 2, size=num_bits, dtype=np.uint8)


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
    row_bytes = words_per_block(num_bits) * 8
    byte_image = np.empty((num_blocks, row_bytes), dtype=np.uint8)
    uniforms = np.empty((min(num_blocks, FLIP_DRAW_ROWS), num_bits))
    # Rows padded to whole words with columns that stay False, so one flat
    # packbits of a block of rows is already its padded byte image.
    flips = np.zeros((uniforms.shape[0], row_bytes * 8), dtype=bool)
    for start in range(0, num_blocks, FLIP_DRAW_ROWS):
        rows = min(FLIP_DRAW_ROWS, num_blocks - start)
        generator.random(out=uniforms[:rows])
        np.less(uniforms[:rows], raw_ber, out=flips[:rows, :num_bits])
        byte_image[start : start + rows] = np.packbits(flips[:rows]).reshape(rows, row_bytes)
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

    def confidence_interval(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval on the estimated BER."""
        if self.bits_simulated == 0:
            return (0.0, 0.0)
        p = self.estimated_ber
        half_width = _CONFIDENCE_Z * math.sqrt(max(p * (1.0 - p), 1e-300) / self.bits_simulated)
        return (max(0.0, p - half_width), min(1.0, p + half_width))


def estimate_ber_monte_carlo(
    code,
    raw_ber: float,
    *,
    num_blocks: int = 2000,
    rng: np.random.Generator | None = None,
    seed: int | np.random.SeedSequence | None = None,
) -> MonteCarloBERResult:
    """Estimate the post-decoding BER of ``code`` on a BSC.

    Parameters
    ----------
    code:
        Any systematic linear code whose packed decoder depends only on the
        error pattern (``n``, ``k``, ``decode_batch_packed``) — every
        registry code, :class:`~repro.coding.uncoded.UncodedScheme`
        included.
    raw_ber:
        Crossover probability of the binary symmetric channel.
    num_blocks:
        Number of independent codewords to simulate.
    rng:
        Optional numpy random generator for reproducibility.
    seed:
        Alternative to ``rng``: an integer or :class:`~numpy.random.SeedSequence`
        from which the generator is built (see :func:`resolve_rng`).

    Blocks are simulated :data:`DEFAULT_BATCH_SIZE` at a time, which keeps
    the per-batch arrays comfortably in memory while leaving the hot path
    entirely inside NumPy.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if num_blocks < 1:
        raise ConfigurationError("at least one block must be simulated")
    generator = resolve_rng(rng, seed)

    bit_errors = 0
    block_errors = 0
    k = code.k
    n = code.n
    # Residual errors are counted on the systematic message prefix of the
    # corrected error patterns (every in-package code is systematic).
    message_mask = prefix_mask(n, k)
    for start in range(0, num_blocks, DEFAULT_BATCH_SIZE):
        count = min(DEFAULT_BATCH_SIZE, num_blocks - start)
        # The all-zero codeword stands in for the random messages, whose
        # draw is skipped so the flips come from the same stream position.
        skip_fair_bits(generator, count * k)
        decoded = decode_blocks_packed(code, draw_flip_words(generator, count, n, raw_ber))
        errors_per_block = popcount_rows(decoded.corrected_words & message_mask)
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
