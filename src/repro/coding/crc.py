"""Cyclic redundancy checks for error *detection*.

CRCs do not correct errors, so on their own they cannot relax the laser
power under the paper's fixed-BER criterion; they matter for the
detection-plus-retransmission policies explored by the runtime manager and
for end-to-end integrity checks in the message-level simulator.

:meth:`CyclicRedundancyCheck.checksum_batch` exploits the linearity of the
CRC over GF(2): the remainder of a message is the XOR of the per-bit
remainders ``x^{L-1-i+w} mod g``, folded into 256-entry per-byte partial-CRC
tables (the same bit-slicing trick the coder tables use).  A whole
``(B, L)`` batch then reduces to ``ceil(L/8)`` table gathers — this is what
makes per-packet CRCs affordable in the bit-exact network simulator.  The
bit-serial shift register (one shift per bit) survives in the test suite
(``tests/coding/oracle.py``) as the reference the batch path is pinned
against.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CodewordLengthError, ConfigurationError
from .matrices import as_gf2
from .packed import byte_lookup_tables, fold_byte_tables

__all__ = ["CyclicRedundancyCheck"]

_WELL_KNOWN_POLYNOMIALS = {
    "crc4-itu": (4, 0x3),
    "crc8": (8, 0x07),
    "crc8-maxim": (8, 0x31),
    "crc16-ccitt": (16, 0x1021),
    "crc16-ibm": (16, 0x8005),
    "crc32": (32, 0x04C11DB7),
}


class CyclicRedundancyCheck:
    """Table-driven batch CRC generator/checker over GF(2).

    Parameters
    ----------
    width:
        Number of CRC bits appended to the message.
    polynomial:
        Generator polynomial as an integer *without* the implicit leading
        ``x^width`` term (the usual "normal" representation, e.g. ``0x1021``
        for CRC-16-CCITT).
    """

    def __init__(self, width: int, polynomial: int):
        if width < 1 or width > 64:
            raise ConfigurationError("CRC width must lie between 1 and 64 bits")
        if polynomial <= 0 or polynomial >= (1 << width):
            raise ConfigurationError("polynomial must fit in `width` bits and be non-zero")
        self._width = width
        self._polynomial = polynomial
        #: Per-message-length byte-sliced partial-CRC tables for the batch
        #: path, keyed by message bit length.
        self._batch_tables: dict[int, np.ndarray] = {}

    @classmethod
    def from_name(cls, name: str) -> "CyclicRedundancyCheck":
        """Construct one of the well-known CRCs by name (e.g. ``"crc16-ccitt"``)."""
        key = name.lower()
        if key not in _WELL_KNOWN_POLYNOMIALS:
            raise ConfigurationError(
                f"unknown CRC {name!r}; known: {sorted(_WELL_KNOWN_POLYNOMIALS)}"
            )
        width, poly = _WELL_KNOWN_POLYNOMIALS[key]
        return cls(width, poly)

    @property
    def width(self) -> int:
        """Number of check bits."""
        return self._width

    # ------------------------------------------------------------------ batch path
    def _bit_contributions(self, length: int) -> np.ndarray:
        """Remainders ``x^{length-1-i+w} mod g`` of every message bit position.

        The CRC register is linear over GF(2) with zero initialisation, so
        the checksum of any message is the XOR of these per-bit remainders
        over its set bits.  Computed once per length by repeated
        multiply-by-``x`` (one shift-and-reduce per position).
        """
        mask = (1 << self._width) - 1
        top_bit = 1 << (self._width - 1)
        contributions = np.zeros(length, dtype=np.uint64)
        register = self._polynomial  # remainder of x^w: contribution of the last bit
        for position in range(length - 1, -1, -1):
            contributions[position] = register
            if position:
                feedback = register & top_bit
                register = (register << 1) & mask
                if feedback:
                    register ^= self._polynomial
        return contributions

    def _byte_tables(self, length: int) -> np.ndarray:
        """``(ceil(length/8), 256)`` partial-CRC tables for ``length``-bit messages.

        Entry ``[i, v]`` is the XOR of the bit contributions of every bit
        set in byte value ``v`` at byte position ``i`` of the MSB-first
        packed message, so a whole batch's checksums are ``ceil(length/8)``
        table gathers.  Cached per message length.
        """
        tables = self._batch_tables.get(length)
        if tables is None:
            tables = byte_lookup_tables(self._bit_contributions(length))
            self._batch_tables[length] = tables
        return tables

    def checksum_batch(self, messages) -> np.ndarray:
        """CRC registers of a whole ``(B, L)`` bit matrix as ``(B,)`` uint64.

        Bit-identical to running a bit-serial shift register row by row
        (the tests pin the two together), at a few table gathers per batch
        instead of one Python-loop iteration per bit.  Entries are reduced
        modulo 2 (no copy for a 0/1 ``uint8`` input).
        """
        matrix = as_gf2(messages, copy=False)
        if matrix.ndim != 2:
            raise CodewordLengthError(
                f"checksum_batch expects a (B, L) bit matrix, got shape {matrix.shape}"
            )
        return fold_byte_tables(self._byte_tables(matrix.shape[1]), np.packbits(matrix, axis=1))

    def checksum_batch_bits(self, messages) -> np.ndarray:
        """``(B, width)`` CRC bit rows (MSB first) of a ``(B, L)`` bit matrix."""
        registers = self.checksum_batch(messages)
        shifts = np.arange(self._width - 1, -1, -1, dtype=np.uint64)
        return ((registers[:, np.newaxis] >> shifts[np.newaxis, :]) & np.uint64(1)).astype(
            np.uint8
        )

    def verify_batch(self, bits_with_crc) -> np.ndarray:
        """Check a ``(B, L+width)`` batch; ``(B,)`` booleans, True when clean."""
        matrix = as_gf2(bits_with_crc, copy=False)
        if matrix.ndim != 2 or matrix.shape[1] <= self._width:
            raise CodewordLengthError(
                "verify_batch expects a (B, L+width) matrix longer than the CRC itself"
            )
        expected = self.checksum_batch_bits(matrix[:, : -self._width])
        return np.all(expected == matrix[:, -self._width :], axis=1)
