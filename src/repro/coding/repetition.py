"""Repetition codes decoded by majority vote.

The rate-1/r repetition code is the simplest code that trades bandwidth for
reliability.  Its poor rate makes it uninteresting for the paper's 10 Gb/s
links, but it is valuable as a sanity baseline: any sensible ECC selection
policy must prefer Hamming codes over repetition at equal correction power,
and the Monte-Carlo simulator can be validated against its closed-form
post-decoding error probability.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .base import LinearBlockCode, PackedBatchDecodeResult
from .packed import popcount_rows, prefix_mask

__all__ = ["RepetitionCode"]


class RepetitionCode(LinearBlockCode):
    """The (r, 1) repetition code with odd repetition factor ``r``."""

    def __init__(self, repetitions: int):
        if repetitions < 3 or repetitions % 2 == 0:
            raise ConfigurationError("repetition factor must be an odd integer >= 3")
        generator = np.ones((1, repetitions), dtype=np.uint8)
        super().__init__(
            generator,
            name=f"REP({repetitions},1)",
            minimum_distance=repetitions,
        )
        self._all_ones = prefix_mask(repetitions, repetitions)

    def decode_batch_packed(self, received_words) -> PackedBatchDecodeResult:
        """Packed majority vote: each block's row popcount decides its bit."""
        words = self._require_packed(received_words, self._n)
        ones = popcount_rows(words)
        majority = 2 * ones > self._n
        return PackedBatchDecodeResult(
            corrected_words=np.where(majority[:, np.newaxis], self._all_ones, np.uint64(0)),
            failure=np.zeros(words.shape[0], dtype=bool),
        )
