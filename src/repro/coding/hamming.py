"""Hamming codes and shortened Hamming codes.

The paper transmits data either uncoded, with H(7,4) (sixteen parallel
coders for a 64-bit IP word) or with H(71,64) (a single coder for the whole
word).  H(7,4) is the classic Hamming code with ``m = 3``; H(71,64) is the
Hamming code with ``m = 7`` (127, 120) *shortened* by removing 56 message
positions so that exactly 64 payload bits remain.  Both constructions are
provided here, together with a helper that picks the smallest Hamming code
able to carry a given message length (used by the interface generator).

All Hamming codes here are built in systematic form ``[I_k | P]`` where the
columns of ``P^T`` are the binary representations of the message-position
column labels of the classic parity-check matrix.  They correct any single
bit error per block (minimum distance 3).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .base import LinearBlockCode

__all__ = [
    "HammingCode",
    "ShortenedHammingCode",
    "hamming_parameters_for_message_length",
]


def _full_hamming_parity_submatrix(m: int) -> np.ndarray:
    """Parity sub-matrix P of the full (2^m - 1, 2^m - 1 - m) Hamming code.

    The systematic construction assigns the ``n - k = m`` parity bits to the
    power-of-two column labels ``1, 2, 4, ...`` of the classic parity-check
    matrix and the ``k`` message bits to the remaining labels.  Row ``i`` of
    P holds the binary expansion of the i-th non-power-of-two label, so the
    generator ``[I_k | P]`` and parity check ``[P^T | I_m]`` describe the
    standard Hamming code up to a column permutation.
    """
    labels = np.arange(1, 1 << m)
    labels = labels[(labels & (labels - 1)) != 0]
    return ((labels[:, None] >> np.arange(m)) & 1).astype(np.uint8)


class HammingCode(LinearBlockCode):
    """The full Hamming code with parameters (2^m - 1, 2^m - 1 - m).

    ``HammingCode(3)`` is the H(7,4) code used throughout the paper.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ConfigurationError("Hamming codes require m >= 2")
        self._m = int(m)
        n = (1 << m) - 1
        k = n - m
        parity = _full_hamming_parity_submatrix(m)
        generator = np.concatenate([np.eye(k, dtype=np.uint8), parity], axis=1)
        super().__init__(generator, name=f"H({n},{k})", minimum_distance=3)

    @property
    def m(self) -> int:
        """Number of parity bits (the Hamming order)."""
        return self._m


class ShortenedHammingCode(LinearBlockCode):
    """A Hamming code shortened to carry exactly ``message_length`` bits.

    Shortening removes message positions from the full (2^m - 1, 2^m - 1 - m)
    code: the removed positions are fixed to zero and dropped from both the
    message and the codeword.  The resulting (k + m, k) code keeps minimum
    distance 3 (shortening never decreases distance) and single-error
    correction, while matching the data-path width of the electrical
    interface.  ``ShortenedHammingCode(64)`` is the paper's H(71,64);
    ``ShortenedHammingCode(57)`` is the H(63,57) code that appears in the
    label of Figure 6a.
    """

    def __init__(self, message_length: int):
        if message_length < 1:
            raise ConfigurationError("message length must be positive")
        m, _ = hamming_parameters_for_message_length(message_length)
        parity = _full_hamming_parity_submatrix(m)[:message_length, :]
        generator = np.concatenate(
            [np.eye(message_length, dtype=np.uint8), parity], axis=1
        )
        n = message_length + m
        super().__init__(generator, name=f"H({n},{message_length})", minimum_distance=3)
        self._m = m

    @property
    def m(self) -> int:
        """Number of parity bits inherited from the parent Hamming code."""
        return self._m


def hamming_parameters_for_message_length(message_length: int) -> Tuple[int, int]:
    """Smallest Hamming order able to carry ``message_length`` payload bits.

    Returns ``(m, k_full)`` where ``m`` is the number of parity bits and
    ``k_full = 2^m - 1 - m`` is the payload capacity of the full code.  For
    ``message_length = 64`` this yields ``m = 7`` (the H(127,120) parent of
    H(71,64)); for ``4`` it yields ``m = 3`` (H(7,4) itself).
    """
    if message_length < 1:
        raise ConfigurationError("message length must be positive")
    m = 2
    while ((1 << m) - 1 - m) < message_length:
        m += 1
        if m > 32:  # pragma: no cover - defensive, 2^32 payloads are absurd
            raise ConfigurationError("message length too large for a practical Hamming code")
    return m, (1 << m) - 1 - m
