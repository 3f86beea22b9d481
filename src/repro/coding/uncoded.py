"""The pass-through "w/o ECC" transmission scheme.

The paper's baseline transmits raw data: no redundancy, no correction, and a
communication-time overhead of exactly 1.  Modelling it as a degenerate code
object lets every downstream component (link design, power model, manager,
simulators) treat coded and uncoded transmissions uniformly.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CodewordLengthError, ConfigurationError
from .base import PackedBatchDecodeResult
from .packed import require_packed_blocks

__all__ = ["UncodedScheme"]


class UncodedScheme:
    """Identity "code" used for transmissions without ECC.

    It mirrors the :class:`~repro.coding.base.LinearBlockCode` interface
    (``n``, ``k``, the packed encode/decode methods, rate and CT
    properties) so the rest of the library does not special-case the
    uncoded path, exactly as the paper's interface multiplexes between the
    direct path and the Hamming paths.
    """

    def __init__(self, block_length: int = 64):
        if block_length < 1:
            raise ConfigurationError("block length must be positive")
        self._n = int(block_length)

    # ------------------------------------------------------------------ metadata
    @property
    def name(self) -> str:
        """Display name used in reports and figure legends."""
        return "w/o ECC"

    @property
    def n(self) -> int:
        """Block length (equal to the message length for the uncoded scheme)."""
        return self._n

    @property
    def k(self) -> int:
        """Message length."""
        return self._n

    @property
    def num_parity_bits(self) -> int:
        """Uncoded transmissions carry no redundancy."""
        return 0

    @property
    def correctable_errors(self) -> int:
        """No errors can be corrected without redundancy."""
        return 0

    @property
    def code_rate(self) -> float:
        """Rate of the uncoded scheme is exactly 1."""
        return 1.0

    @property
    def communication_time_overhead(self) -> float:
        """CT = 1 by definition (the paper normalises to this case)."""
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UncodedScheme(n={self._n})"

    # ------------------------------------------------------------------ coding API
    def _require_packed(self, words) -> np.ndarray:
        """Validate a ``(B, ceil(n/64))`` packed uint64 matrix (shared validator)."""
        try:
            return require_packed_blocks(words, self._n, what="uncoded")
        except ConfigurationError as error:
            raise CodewordLengthError(str(error)) from None

    def encode_batch_packed(self, message_words) -> np.ndarray:
        """Return the packed message words unchanged (identity encoding)."""
        return self._require_packed(message_words)

    def decode_batch_packed(self, received_words) -> PackedBatchDecodeResult:
        """Accept every packed block verbatim; nothing can be detected."""
        words = self._require_packed(received_words)
        return PackedBatchDecodeResult(
            corrected_words=words, failure=np.zeros(words.shape[0], dtype=bool)
        )
