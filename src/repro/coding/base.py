"""Abstract linear block code with batch encoding and syndrome decoding.

Every concrete code in :mod:`repro.coding` (Hamming, shortened Hamming,
SECDED, parity, repetition, BCH) derives from :class:`LinearBlockCode`.  The
base class implements:

* systematic encoding from a generator matrix,
* syndrome-table decoding (single-error correction or general
  minimum-weight coset leaders for small codes),
* whole batches of blocks per call, mirroring the paper's interfaces
  where a 64-bit IP word is one H(71,64) block or a batch of sixteen
  H(7,4) blocks,
* the performance metadata the rest of the library needs: code rate,
  communication-time overhead (paper Section IV-D) and correction
  capability.

Packed batch contract
---------------------
Codewords live in ``(B, ceil(n/64))`` ``uint64`` word matrices
(:mod:`repro.coding.packed`) through the whole encode → corrupt → decode
chain; this is the only bit layout the coding API takes.
:meth:`~LinearBlockCode.encode_batch_packed` XOR-folds per-byte
partial-codeword tables stored packed, and
:meth:`~LinearBlockCode.decode_batch_packed` gathers syndrome keys from the
packed byte image without ever materialising unpacked bits and applies
corrections as packed XOR masks.  Codes whose decoder is not a plain
syndrome lookup — BCH (algebraic), SECDED (inner Hamming syndrome plus
overall parity) and repetition (majority vote) — override
``decode_batch_packed`` with their own packed decision rule.  Blocks the
decoder cannot correct keep their received bits and are flagged in the
result's ``failure`` vector; decoding never raises on them.  The per-block
reference decoders the packed decoders are pinned against live in the test
suite (``tests/coding/oracle.py``).

Every code the registry hands out implements this packed contract, which
:func:`~repro.coding.registry.get_code` checks; the module-level
:func:`encode_blocks_packed` / :func:`decode_blocks_packed` are the single
call sites the Monte-Carlo engine and the network simulator go through.

Within a block, bits are numbered most-significant first (bit 0 is the MSB
of the first word); the ordering convention only matters for tests since
all analyses are symmetric in bit position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import CodewordLengthError, ConfigurationError
from .matrices import as_gf2, gf2_matmul, gf2_parity_check_from_systematic_generator
from .packed import (
    byte_lookup_tables,
    fold_byte_tables,
    pack_bits,
    packed_byte_view,
    require_packed_blocks,
    unpack_bits,
    words_per_block,
)

__all__ = [
    "PackedBatchDecodeResult",
    "LinearBlockCode",
    "encode_blocks_packed",
    "decode_blocks_packed",
]


@dataclass(frozen=True)
class PackedBatchDecodeResult:
    """Outcome of decoding a packed ``(B, ceil(n/64))`` uint64 batch.

    ``corrected_words`` holds the corrected codewords in the packed-word
    layout of :mod:`repro.coding.packed` (padding bits zero), and
    ``failure`` is a boolean ``(B,)`` vector, True where the decoder knows
    the pattern exceeded its correction capability (only detectable for
    codes with minimum distance greater than ``2 t + 1``, e.g. SECDED).  A
    repaired block differs from its received word and a failed one keeps
    it.  Consumers stay on the words and count residual errors with
    popcounts.

    Treat every array as **read-only**: to keep the hot path allocation-free
    the all-clean fast path returns the caller's received words as
    ``corrected_words``.
    """

    corrected_words: np.ndarray
    failure: np.ndarray

    def __len__(self) -> int:
        return int(self.corrected_words.shape[0])

    @property
    def num_failures(self) -> int:
        """Number of blocks with a detected-but-uncorrectable pattern."""
        return int(np.count_nonzero(self.failure))


class LinearBlockCode:
    """A systematic (n, k) linear block code over GF(2).

    Parameters
    ----------
    generator:
        Systematic generator matrix of shape ``(k, n)`` in the form
        ``[I_k | P]``.
    name:
        Human-readable name such as ``"H(7,4)"``; used by the registry, the
        experiment reports and figure legends.
    minimum_distance:
        Known minimum distance of the code.  Required because several
        analytic BER expressions depend on it and exhaustive computation is
        infeasible for codes such as H(71,64).
    """

    #: Largest number of parity bits for which the dense syndrome lookup
    #: array (2^(n-k) rows) is materialised; wider codes fall back to
    #: probing the dict once per *unique* syndrome in the batch.
    _DENSE_SYNDROME_TABLE_MAX_BITS = 22

    #: Cap on the size of the bit-sliced encode lookup tables, counted as
    #: ``ceil(k/8) * 256 * n`` bits; codes wide enough to blow past it fall
    #: back to the GF(2) matmul.
    _ENCODE_TABLE_MAX_ENTRIES = 1 << 23

    def __init__(self, generator, *, name: str, minimum_distance: int):
        self._generator = as_gf2(generator)
        if self._generator.ndim != 2:
            raise ConfigurationError("generator matrix must be two-dimensional")
        self._k, self._n = self._generator.shape
        if self._k <= 0 or self._n <= self._k:
            raise ConfigurationError(
                f"invalid code dimensions (n={self._n}, k={self._k}); need n > k >= 1"
            )
        if minimum_distance < 1:
            raise ConfigurationError("minimum distance must be at least 1")
        self._name = str(name)
        self._dmin = int(minimum_distance)
        self._parity_check = gf2_parity_check_from_systematic_generator(self._generator)
        self._syndrome_table: Optional[dict[int, np.ndarray]] = None
        # MSB-first powers of two turning an (n-k)-bit syndrome row into an
        # integer key with one dot product.  Codes with more than 62 parity
        # bits cannot key into an int64; they use multi-word uint64 keys
        # instead (see _syndrome_key_lookup_tables).
        if self._n - self._k <= 62:
            self._syndrome_weights: Optional[np.ndarray] = (
                np.int64(1) << np.arange(self._n - self._k - 1, -1, -1, dtype=np.int64)
            )
        else:
            self._syndrome_weights = None
        self._syndrome_patterns: Optional[np.ndarray] = None
        self._syndrome_known: Optional[np.ndarray] = None
        self._syndrome_key_tables: Optional[np.ndarray] = None
        self._packed_encode_tables_cache: Optional[np.ndarray] = None
        self._packed_syndrome_patterns: Optional[np.ndarray] = None
        #: Sparse ``syndrome key -> packed error pattern`` cache for codes too
        #: wide for the dense pattern array.
        self._packed_pattern_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ metadata
    @property
    def name(self) -> str:
        """Display name of the code (e.g. ``"H(7,4)"``)."""
        return self._name

    @property
    def n(self) -> int:
        """Block length."""
        return self._n

    @property
    def k(self) -> int:
        """Message length."""
        return self._k

    @property
    def num_parity_bits(self) -> int:
        """Number of redundancy bits per block (n - k)."""
        return self._n - self._k

    @property
    def correctable_errors(self) -> int:
        """Guaranteed number of correctable errors t = floor((dmin - 1) / 2)."""
        return (self._dmin - 1) // 2

    @property
    def code_rate(self) -> float:
        """Code rate Rc = k / n."""
        return self._k / self._n

    @property
    def communication_time_overhead(self) -> float:
        """Relative transmission-time increase CT = n / k (paper Section IV-D).

        The paper normalises the communication time to the uncoded case, so
        H(7,4) has CT = 1.75 and H(71,64) has CT ~ 1.11.
        """
        return self._n / self._k

    @property
    def generator_matrix(self) -> np.ndarray:
        """Copy of the systematic generator matrix ``[I_k | P]``."""
        return self._generator.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self._name!r}, n={self._n}, k={self._k}, dmin={self._dmin})"

    # ------------------------------------------------------------------ encoding
    def _packed_encode_lookup_tables(self) -> Optional[np.ndarray]:
        """Packed encode tables: ``(ceil(k/8), 256, ceil(n/64))`` uint64.

        One 256-entry partial-codeword table per message byte, each entry
        stored as words: the codeword of a message is the XOR of the
        per-byte partial codewords, turning the GF(2) matmul into
        ``ceil(k/8)`` table gathers.  Built lazily; None when the unpacked
        size of the tables (``ceil(k/8) * 256 * n`` bits) exceeds the cap.
        """
        if self._packed_encode_tables_cache is None:
            if -(-self._k // 8) * 256 * self._n > self._ENCODE_TABLE_MAX_ENTRIES:
                return None
            # The per-bit contribution of message bit i is generator row i
            # (packed); the shared byte-sliced builder folds them per byte.
            self._packed_encode_tables_cache = byte_lookup_tables(pack_bits(self._generator))
        return self._packed_encode_tables_cache

    def encode_batch_packed(self, message_words) -> np.ndarray:
        """Encode a packed ``(B, ceil(k/64))`` message matrix into packed codewords.

        The hot path of the packed pipeline: the codeword of each message is
        the XOR of per-byte partial codewords gathered from the packed
        lookup tables, indexed by the bytes of the packed message image —
        no unpacked bit ever materialises.  Padding bits of the input must
        be zero (the :func:`~repro.coding.packed.pack_bits` invariant).
        """
        words = self._require_packed(message_words, self._k, "message")
        tables = self._packed_encode_lookup_tables()
        if tables is None:
            return pack_bits(gf2_matmul(unpack_bits(words, self._k), self._generator))
        return fold_byte_tables(tables, packed_byte_view(words))

    # ------------------------------------------------------------------ decoding
    def syndrome(self, received_bits) -> np.ndarray:
        """Syndrome ``H r^T`` of a received n-bit block."""
        received = as_gf2(received_bits).ravel()
        if received.size != self._n:
            raise CodewordLengthError(
                f"{self._name}: expected a {self._n}-bit block, got {received.size} bits"
            )
        return gf2_matmul(self._parity_check, received[:, np.newaxis])[:, 0]

    def _build_syndrome_table(self) -> dict[int, np.ndarray]:
        """Map syndrome integers to minimum-weight error patterns.

        The default implementation covers all single-bit error patterns,
        which is exact for Hamming codes (t = 1) and a best-effort choice for
        larger-distance codes; subclasses with higher correction capability
        override :meth:`decode_batch_packed` or extend the table.
        """
        table: dict[int, np.ndarray] = {}
        for position in range(self._n):
            error = np.zeros(self._n, dtype=np.uint8)
            error[position] = 1
            key = self._syndrome_key(self.syndrome(error))
            table.setdefault(key, error)
        return table

    @staticmethod
    def _syndrome_key(syndrome: np.ndarray) -> int:
        """Pack a syndrome bit vector into an integer key (MSB first)."""
        bits = np.asarray(syndrome, dtype=np.uint8).ravel()
        if bits.size == 0:
            return 0
        packed = np.packbits(bits)
        # packbits pads the last byte on the LSB side; shift it back out so
        # the key equals sum(bit[i] << (size - 1 - i)).
        return int.from_bytes(packed.tobytes(), "big") >> (-bits.size % 8)

    def _syndrome_dict(self) -> dict[int, np.ndarray]:
        if self._syndrome_table is None:
            self._syndrome_table = self._build_syndrome_table()
        return self._syndrome_table

    def _syndrome_lookup_arrays(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Dense ``key -> error pattern`` array plus a ``key is known`` mask.

        Built once per code from the syndrome dict; returns None for codes
        with too many parity bits to materialise 2^(n-k) rows.
        """
        num_parity = self._n - self._k
        if num_parity > self._DENSE_SYNDROME_TABLE_MAX_BITS:
            return None
        if self._syndrome_patterns is None:
            size = 1 << num_parity
            patterns = np.zeros((size, self._n), dtype=np.uint8)
            known = np.zeros(size, dtype=bool)
            for key, error in self._syndrome_dict().items():
                patterns[key] = error
                known[key] = True
            self._syndrome_patterns = patterns
            self._syndrome_known = known
        return self._syndrome_patterns, self._syndrome_known

    def _syndrome_key_lookup_tables(self) -> np.ndarray:
        """Bit-sliced syndrome-key tables: ``(ceil(n/8), 256, ...)`` partial keys.

        Because packing to a key commutes with XOR, the key of a received
        block is the XOR of per-byte partial keys, so the whole batch's
        syndrome keys come from ``ceil(n/8)`` table gathers instead of a
        matmul plus a powers-of-two dot product.  Codes with at most 62
        parity bits key into scalar ``int64`` entries; wider codes store each
        partial key as the *packed words* of the syndrome itself
        (``ceil((n-k)/64)`` uint64 per entry), which XOR-compose exactly the
        same way — no width limit, no scalar fallback.
        """
        if self._syndrome_key_tables is None:
            if self._syndrome_weights is not None:
                # The partial key of received bit i is the packed syndrome of
                # the unit error at i — one dot product per parity-check
                # column.
                contributions = self._parity_check.T.astype(np.int64) @ self._syndrome_weights
            else:
                contributions = pack_bits(self._parity_check.T)
            self._syndrome_key_tables = byte_lookup_tables(contributions)
        return self._syndrome_key_tables

    def _batch_syndrome_keys_packed(self, words: np.ndarray) -> np.ndarray:
        """Integer syndrome keys gathered straight from the packed byte image.

        Packing a syndrome to its key commutes with XOR, so the key of each
        block is the XOR of per-byte partial keys — ``ceil(n/8)`` table
        gathers over the bytes of the packed words, never touching unpacked
        bits.
        """
        return fold_byte_tables(self._syndrome_key_lookup_tables(), packed_byte_view(words))

    def _require_packed(self, words, num_bits: int, what: str = "received") -> np.ndarray:
        """Validate a ``(B, ceil(num_bits/64))`` packed uint64 matrix.

        Shared validator from :mod:`repro.coding.packed`, re-raised as a
        :class:`CodewordLengthError` carrying the code's name.
        """
        try:
            return require_packed_blocks(words, num_bits, what=what)
        except ConfigurationError as error:
            raise CodewordLengthError(f"{self._name}: {error}") from None

    def _packed_syndrome_lookup_arrays(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Dense ``key -> packed error pattern`` array plus the known mask."""
        dense = self._syndrome_lookup_arrays()
        if dense is None:
            return None
        if self._packed_syndrome_patterns is None:
            patterns, _ = dense
            self._packed_syndrome_patterns = pack_bits(patterns)
        return self._packed_syndrome_patterns, self._syndrome_known

    def _packed_pattern_for_key(self, key: int) -> Optional[np.ndarray]:
        """Packed error pattern of one syndrome key (sparse-table codes only)."""
        cached = self._packed_pattern_cache.get(key)
        if cached is None:
            pattern = self._syndrome_dict().get(key)
            if pattern is None:
                return None
            cached = pack_bits(pattern[np.newaxis, :])[0]
            self._packed_pattern_cache[key] = cached
        return cached

    def _syndrome_words_to_key(self, words: np.ndarray) -> int:
        """Python-int key of one packed multi-word syndrome.

        The byte image of the packed words *is* ``np.packbits`` of the
        syndrome bits, so the big-endian integer of its meaningful bytes —
        shifted past the sub-byte padding — equals :meth:`_syndrome_key` of
        the same syndrome for any number of parity bits.
        """
        num_parity = self._n - self._k
        image = packed_byte_view(words[np.newaxis, :])[0]
        return int.from_bytes(image[: -(-num_parity // 8)].tobytes(), "big") >> (-num_parity % 8)

    def _packed_corrections(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Packed error patterns and a ``key is known`` mask for a batch of syndrome keys.

        Key 0 and keys without a table entry map to all-zero patterns (and
        ``known`` False), so XOR-ing the patterns into the received words
        leaves those blocks as received.
        """
        dense = self._packed_syndrome_lookup_arrays()
        if dense is not None:
            patterns, known = dense
            return patterns[keys], known[keys]
        errors = np.zeros((keys.shape[0], words_per_block(self._n)), dtype=np.uint64)
        known_mask = np.zeros(keys.shape[0], dtype=bool)
        if keys.ndim == 1:
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            int_keys = [int(key) for key in unique_keys]
        else:
            # Multi-word keys (> 62 parity bits): dedupe whole key rows
            # and bridge each unique row to the Python-int vocabulary of
            # the syndrome dict once.
            unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
            int_keys = [self._syndrome_words_to_key(row) for row in unique_keys]
        inverse = np.asarray(inverse).reshape(-1)
        for index, key in enumerate(int_keys):
            if key == 0:
                continue
            pattern = self._packed_pattern_for_key(key)
            if pattern is None:
                continue
            mask = inverse == index
            errors[mask] = pattern
            known_mask[mask] = True
        return errors, known_mask

    def decode_batch_packed(self, received_words) -> PackedBatchDecodeResult:
        """Decode a packed ``(B, ceil(n/64))`` uint64 batch without unpacking.

        Syndrome keys gather from the packed byte image, the dense syndrome
        table is stored as packed XOR masks, and corrected codewords stay
        packed.  Blocks whose syndrome has no table entry keep their
        received bits and are flagged in ``failure``.  Codes with their own
        decision rule (BCH, SECDED, repetition) override this method.
        """
        words = self._require_packed(received_words, self._n)
        keys = self._batch_syndrome_keys_packed(words)
        detected = keys != 0 if keys.ndim == 1 else keys.any(axis=1)
        if not detected.any():
            # All-clean fast path: no corrections, so the received words and
            # the all-False ``detected`` mask are returned as-is (no copies).
            return PackedBatchDecodeResult(corrected_words=words, failure=detected)
        errors, known_mask = self._packed_corrections(keys)
        return PackedBatchDecodeResult(
            corrected_words=words ^ errors, failure=detected & ~known_mask
        )


def encode_blocks_packed(code, message_words) -> np.ndarray:
    """Encode a packed ``(B, ceil(k/64))`` batch with ``code``."""
    return code.encode_batch_packed(message_words)


def decode_blocks_packed(code, received_words) -> PackedBatchDecodeResult:
    """Decode a packed ``(B, ceil(n/64))`` batch with ``code``."""
    return code.decode_batch_packed(received_words)
