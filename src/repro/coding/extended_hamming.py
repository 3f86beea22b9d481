"""Extended Hamming (SECDED) codes.

Adding an overall parity bit to a Hamming code raises its minimum distance
from 3 to 4, giving Single-Error-Correct / Double-Error-Detect behaviour.
The paper mentions that "other coding techniques can be used"; SECDED is the
most common industrial variant of Hamming and is exposed both as a design
alternative for the link manager and as a stress test of the generic
decoding machinery (the double-error-detected case exercises the
``failure`` flag of :class:`~repro.coding.base.PackedBatchDecodeResult`).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .base import LinearBlockCode, PackedBatchDecodeResult
from .hamming import HammingCode, ShortenedHammingCode
from .packed import popcount_rows, range_mask

__all__ = ["ExtendedHammingCode"]


class ExtendedHammingCode(LinearBlockCode):
    """SECDED code built by appending an overall parity bit to a Hamming code.

    Parameters
    ----------
    message_length:
        Number of payload bits.  When it matches a full Hamming code payload
        (e.g. 4, 11, 26, 57, 120) the full code is extended; otherwise the
        corresponding shortened Hamming code is extended, so
        ``ExtendedHammingCode(64)`` is the (72, 64) SECDED code widely used
        in DRAM controllers.
    """

    def __init__(self, message_length: int):
        if message_length < 1:
            raise ConfigurationError("message length must be positive")
        if message_length in {(1 << m) - 1 - m for m in range(2, 16)}:
            base: LinearBlockCode = _full_code_for(message_length)
        else:
            base = ShortenedHammingCode(message_length)
        base_generator = base.generator_matrix
        # The extended generator appends one column holding the parity of
        # every row, so each codeword gains an overall even-parity bit.
        overall_parity = np.mod(base_generator.sum(axis=1), 2).astype(np.uint8)
        generator = np.concatenate([base_generator, overall_parity[:, np.newaxis]], axis=1)
        n = base.n + 1
        super().__init__(
            generator,
            name=f"SECDED({n},{message_length})",
            minimum_distance=4,
        )
        self._inner = base
        self._parity_bit_mask = range_mask(n, n - 1, n)

    def decode_batch_packed(self, received_words) -> PackedBatchDecodeResult:
        """Packed SECDED decoding of a whole ``(B, ceil(n/64))`` batch.

        The inner Hamming syndrome keys fold straight from the received
        words (the inner code's byte tables cover only the first ``n - 1``
        bits, so the overall parity bit drops out), and the overall parity
        is the row popcount.  The four scalar decision cases become packed
        XORs: odd-weight rows take the inner correction (none for the
        parity-bit-only error), even-weight rows keep their bits, and the
        parity bit is then recomputed wherever the corrected word still has
        odd weight.
        """
        words = self._require_packed(received_words, self._n)
        keys = self._inner._batch_syndrome_keys_packed(words)
        odd_weight = (popcount_rows(words) & 1).astype(bool)
        errors, _ = self._inner._packed_corrections(np.where(odd_weight, keys, 0))
        corrected_words = words.copy()
        # The inner patterns span ceil((n-1)/64) words, one fewer than the
        # codeword when n - 1 is a multiple of 64.
        corrected_words[:, : errors.shape[1]] ^= errors
        parity_flips = (popcount_rows(corrected_words) & 1).astype(np.uint64)
        corrected_words ^= parity_flips[:, np.newaxis] * self._parity_bit_mask
        # Even-weight error with a non-zero syndrome: a double error.
        double = (keys != 0) & ~odd_weight
        return PackedBatchDecodeResult(corrected_words=corrected_words, failure=double)

def _full_code_for(message_length: int) -> HammingCode:
    """Return the full Hamming code whose payload equals ``message_length``."""
    m = 2
    while (1 << m) - 1 - m != message_length:
        m += 1
    return HammingCode(m)
