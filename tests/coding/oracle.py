"""Per-block reference decoders and GF(2) helpers: the coding test oracle.

The production decoders in :mod:`repro.coding` run whole batches on packed
``uint64`` words (syndrome byte tables, branchless batch Berlekamp–Massey,
row popcounts).  The scalar decoders below are the pre-batching
implementations they replaced, one block at a time, with no shared fast
path: a dict probe of the syndrome table for plain linear codes, the
inner-syndrome/overall-parity cases of SECDED, a majority vote for
repetition and Horner syndromes plus Berlekamp–Massey and a Chien search
for BCH.  The equivalence tests pin the batch and packed decoders against
them row by row, clean, corrected and failed blocks alike.

The GF(2) helpers (row reduction, rank, null space, exhaustive minimum
distance) check the code constructions from first principles.

:func:`estimate_ber_round_trip` is the Monte-Carlo estimator as it was
before it moved to the all-zero codeword: it draws real random messages,
encodes them, XORs in the channel flips, decodes and compares.  The
codeword-independence tests pin :func:`repro.coding.estimate_ber_monte_carlo`
against it, results and generator state alike.

Tests import this module as ``from coding.oracle import ...``; the
``tests`` directory is on ``sys.path`` under pytest, and the qualified name
keeps it apart from ``tests/netsim/oracle.py``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.coding.base import BatchDecodeResult, DecodeResult
from repro.coding.bch import BCHCode
from repro.coding.extended_hamming import ExtendedHammingCode
from repro.coding.matrices import as_gf2, gf2_matmul, hamming_weight
from repro.coding.montecarlo import DEFAULT_BATCH_SIZE, MonteCarloBERResult, draw_flip_words
from repro.coding.packed import pack_bits, popcount_rows, prefix_mask
from repro.coding.repetition import RepetitionCode
from repro.exceptions import CodewordLengthError, DecodingFailure

__all__ = [
    "decode_block_reference",
    "decode_blocks_scalar",
    "bch_codeword_polynomial",
    "gf2_rref",
    "gf2_rank",
    "gf2_null_space",
    "gf2_systematic_generator_from_parity_check",
    "hamming_distance",
    "minimum_distance_exhaustive",
    "estimate_ber_round_trip",
]


# ---------------------------------------------------------------------- decoders
def decode_block_reference(code, received_bits, *, strict: bool = False) -> DecodeResult:
    """Decode one block with the scalar reference decoder of ``code``'s family."""
    received = as_gf2(received_bits).ravel()
    if received.size != code.n:
        raise CodewordLengthError(
            f"{code.name}: expected a {code.n}-bit block, got {received.size} bits"
        )
    if isinstance(code, BCHCode):
        return _bch_reference(code, received, strict=strict)
    if isinstance(code, ExtendedHammingCode):
        return _secded_reference(code, received, strict=strict)
    if isinstance(code, RepetitionCode):
        return _repetition_reference(code, received)
    return _syndrome_table_reference(code, received, strict=strict)


def decode_blocks_scalar(code, blocks: np.ndarray, *, strict: bool = False) -> BatchDecodeResult:
    """Per-block reference decoding of a validated ``(B, n)`` matrix.

    Covers the multi-word syndrome-key path of codes with more than 62
    parity bits too: the reference keys are Python integers of any width.
    """
    return _assemble_batch(
        code, [decode_block_reference(code, block, strict=strict) for block in blocks]
    )


def _assemble_batch(code, results: list[DecodeResult]) -> BatchDecodeResult:
    """Stack per-block :class:`DecodeResult` objects into a batch result."""
    if not results:
        return BatchDecodeResult(
            message_bits=np.zeros((0, code.k), dtype=np.uint8),
            corrected_codewords=np.zeros((0, code.n), dtype=np.uint8),
            detected_error=np.zeros(0, dtype=bool),
            corrected=np.zeros(0, dtype=bool),
            failure=np.zeros(0, dtype=bool),
        )
    return BatchDecodeResult(
        message_bits=np.stack([r.message_bits for r in results]),
        corrected_codewords=np.stack([r.corrected_codeword for r in results]),
        detected_error=np.array([r.detected_error for r in results], dtype=bool),
        corrected=np.array([r.corrected for r in results], dtype=bool),
        failure=np.array([r.failure for r in results], dtype=bool),
    )


def _unchanged(code, received: np.ndarray, *, detected: bool, failure: bool = False) -> DecodeResult:
    return DecodeResult(
        message_bits=received[: code.k].copy(),
        corrected_codeword=received.copy(),
        detected_error=detected,
        corrected=False,
        failure=failure,
    )


def _fixed(code, corrected: np.ndarray) -> DecodeResult:
    return DecodeResult(
        message_bits=corrected[: code.k].copy(),
        corrected_codeword=corrected,
        detected_error=True,
        corrected=True,
    )


def _syndrome_table_reference(code, received: np.ndarray, *, strict: bool) -> DecodeResult:
    """Syndrome decoding with one dict probe of the code's syndrome table."""
    syndrome = code.syndrome(received)
    if not syndrome.any():
        return _unchanged(code, received, detected=False)
    error = code._syndrome_dict().get(code._syndrome_key(syndrome))
    if error is None:
        if strict:
            raise DecodingFailure(f"{code.name}: uncorrectable syndrome {syndrome.tolist()}")
        return _unchanged(code, received, detected=True, failure=True)
    return _fixed(code, received ^ error)


def _secded_reference(code, received: np.ndarray, *, strict: bool) -> DecodeResult:
    """SECDED: correct single errors, flag double errors.

    The overall parity bit tells odd-weight error patterns (a single error
    somewhere, correctable) from even-weight patterns with a non-zero inner
    syndrome (a double error, detected but uncorrectable).
    """
    inner_block = received[:-1]
    overall_parity_ok = (int(inner_block.sum()) + int(received[-1])) % 2 == 0
    inner_syndrome_zero = not code.inner_code.syndrome(inner_block).any()
    if inner_syndrome_zero and overall_parity_ok:
        return _unchanged(code, received, detected=False)
    if inner_syndrome_zero:
        # Error confined to the overall parity bit itself.
        corrected = received.copy()
        corrected[-1] ^= 1
        return _fixed(code, corrected)
    if not overall_parity_ok:
        # Odd-weight error: trust the inner Hamming correction, then
        # recompute the parity bit so the corrected word is a codeword.
        inner_result = _syndrome_table_reference(code.inner_code, inner_block, strict=False)
        corrected = np.concatenate([inner_result.corrected_codeword, received[-1:]])
        corrected[-1] = np.uint8(int(corrected[:-1].sum()) % 2)
        return _fixed(code, corrected)
    if strict:
        raise DecodingFailure(f"{code.name}: double error detected")
    return _unchanged(code, received, detected=True, failure=True)


def _repetition_reference(code, received: np.ndarray) -> DecodeResult:
    """Majority vote over the block."""
    ones = int(received.sum())
    bit = 1 if ones * 2 > code.n else 0
    detected = bool(0 < ones < code.n)
    return DecodeResult(
        message_bits=np.array([bit], dtype=np.uint8),
        corrected_codeword=np.full(code.n, bit, dtype=np.uint8),
        detected_error=detected,
        corrected=detected,
    )


# ---------------------------------------------------------------------- BCH
def bch_codeword_polynomial(code: BCHCode, received: np.ndarray) -> List[int]:
    """Map the systematic word [message | parity] onto the cyclic polynomial.

    The systematic encoder produced ``x^{n-k} m(x) + r(x)``; in the matrix
    layout the message occupies positions ``0..k-1`` and parity positions
    ``k..n-1``, so polynomial coefficient ``x^j`` is parity bit ``j`` for
    ``j < n-k`` and message bit ``j-(n-k)`` otherwise.
    """
    num_parity = code.n - code.k
    coefficients = [0] * code.n
    for j in range(num_parity):
        coefficients[j] = int(received[code.k + j])
    for i in range(code.k):
        coefficients[num_parity + i] = int(received[i])
    return coefficients


def _bch_reference(code: BCHCode, received: np.ndarray, *, strict: bool) -> DecodeResult:
    """Horner-evaluated syndromes, then Berlekamp–Massey and a Chien search."""
    field = code.field
    poly = bch_codeword_polynomial(code, received)
    syndromes = [
        field.poly_eval(poly, field.alpha_power(exponent))
        for exponent in range(1, 2 * code.t + 1)
    ]
    if not any(syndromes):
        return _unchanged(code, received, detected=False)
    locator = _berlekamp_massey(code, syndromes)
    error_positions = _chien_search(code, locator)
    if error_positions is None or len(error_positions) != len(locator) - 1:
        if strict:
            raise DecodingFailure(f"{code.name}: uncorrectable error pattern")
        return _unchanged(code, received, detected=True, failure=True)
    corrected = received.copy()
    num_parity = code.n - code.k
    for position in error_positions:
        # Polynomial coefficient `position` is parity bit `position` when
        # below n-k and message bit `position - (n-k)` otherwise.
        if position < num_parity:
            corrected[code.k + position] ^= 1
        else:
            corrected[position - num_parity] ^= 1
    return _fixed(code, corrected)


def _berlekamp_massey(code: BCHCode, syndromes: List[int]) -> List[int]:
    """Berlekamp–Massey over GF(2^m); returns the error-locator polynomial."""
    field = code.field
    locator = [1]
    previous = [1]
    length = 0
    shift = 1
    previous_discrepancy = 1
    for index, syndrome in enumerate(syndromes):
        discrepancy = syndrome
        for j in range(1, length + 1):
            if j < len(locator):
                discrepancy ^= field.multiply(locator[j], syndromes[index - j])
        if discrepancy == 0:
            shift += 1
            continue
        coefficient = field.divide(discrepancy, previous_discrepancy)
        correction = [0] * shift + [field.multiply(coefficient, c) for c in previous]
        updated = list(locator) + [0] * max(0, len(correction) - len(locator))
        for j, value in enumerate(correction):
            updated[j] ^= value
        if 2 * length <= index:
            previous = list(locator)
            previous_discrepancy = discrepancy
            length = index + 1 - length
            shift = 1
        else:
            shift += 1
        locator = updated
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator


def _chien_search(code: BCHCode, locator: List[int]) -> List[int] | None:
    """Error positions as roots of the locator polynomial, or None."""
    field = code.field
    degree = len(locator) - 1
    if degree == 0:
        return []
    if degree > code.t:
        return None
    positions = []
    for position in range(code.n):
        # The locator roots are alpha^{-i} for error positions i.
        x = field.alpha_power((-position) % field.order)
        if field.poly_eval(locator, x) == 0:
            positions.append(position)
    if len(positions) != degree:
        return None
    return positions


# ---------------------------------------------------------------------- GF(2)
def gf2_rref(matrix) -> Tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2) and its pivot columns."""
    m = as_gf2(matrix).copy()
    rows, cols = m.shape
    pivot_columns: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_rows = np.nonzero(m[row:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = pivot_rows[0] + row
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
        # Eliminate the pivot column from every other row.
        for other in np.nonzero(m[:, col])[0]:
            if other != row:
                m[other] ^= m[row]
        pivot_columns.append(col)
        row += 1
    return m, pivot_columns


def gf2_rank(matrix) -> int:
    """Rank of a binary matrix over GF(2)."""
    return len(gf2_rref(matrix)[1])


def gf2_null_space(matrix) -> np.ndarray:
    """``(nullity, cols)`` basis of the right null space of a GF(2) matrix."""
    m = as_gf2(matrix)
    _, cols = m.shape
    rref, pivots = gf2_rref(m)
    free_columns = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_columns), cols), dtype=np.uint8)
    for i, free in enumerate(free_columns):
        basis[i, free] = 1
        for row_index, pivot_col in enumerate(pivots):
            if rref[row_index, free]:
                basis[i, pivot_col] = 1
    return basis


def gf2_systematic_generator_from_parity_check(parity_check) -> np.ndarray:
    """Systematic generator ``[I_k | P]`` spanning a parity check's null space.

    Assumes full row rank and a null space whose first ``k`` columns reduce
    to the identity, which holds for the systematic constructions of
    :mod:`repro.coding`.
    """
    h = as_gf2(parity_check)
    n_minus_k, n = h.shape
    k = n - n_minus_k
    null_basis = gf2_null_space(h)
    if null_basis.shape[0] != k:
        raise ValueError(
            "parity-check matrix does not have full row rank: "
            f"expected nullity {k}, got {null_basis.shape[0]}"
        )
    return gf2_rref(null_basis)[0]


def hamming_distance(a, b) -> int:
    """Number of positions in which two equal-length binary vectors differ."""
    va = as_gf2(a)
    vb = as_gf2(b)
    if va.shape != vb.shape:
        raise ValueError("vectors must have identical shapes")
    return int(np.count_nonzero(va ^ vb))


def minimum_distance_exhaustive(generator, *, max_messages: int = 1 << 16) -> int:
    """Exact minimum distance of a linear code by codeword enumeration.

    The minimum distance of a linear code is its minimum non-zero codeword
    weight; enumeration is exponential in ``k``, so more than
    ``max_messages`` codewords are refused.
    """
    g = as_gf2(generator)
    k, _ = g.shape
    total = 1 << k
    if total > max_messages:
        raise ValueError(
            f"exhaustive enumeration of 2^{k} codewords exceeds the limit of {max_messages}"
        )
    best = None
    for value in range(1, total):
        message = np.array([(value >> bit) & 1 for bit in range(k)], dtype=np.uint8)
        weight = hamming_weight(gf2_matmul(message[np.newaxis, :], g)[0])
        if best is None or weight < best:
            best = weight
            if best == 1:
                break
    return int(best if best is not None else 0)


# ---------------------------------------------------------- Monte-Carlo oracle
def estimate_ber_round_trip(
    code,
    raw_ber: float,
    *,
    num_blocks: int,
    generator: np.random.Generator,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> MonteCarloBERResult:
    """Post-decoding BER by encoding real random messages (the pre-zero-codeword estimator).

    Per batch: ``integers(0, 2, (count, k), uint8)`` messages, packed and
    encoded, the channel flips of :func:`draw_flip_words`, decode, and
    residual message-bit errors against the transmitted codewords.
    """
    bit_errors = 0
    block_errors = 0
    message_mask = prefix_mask(code.n, code.k)
    for start in range(0, num_blocks, batch_size):
        count = min(batch_size, num_blocks - start)
        messages = generator.integers(0, 2, size=(count, code.k), dtype=np.uint8)
        codeword_words = code.encode_batch_packed(pack_bits(messages))
        flip_words = draw_flip_words(generator, count, code.n, raw_ber)
        decoded = code.decode_batch_packed(codeword_words ^ flip_words)
        errors = popcount_rows((decoded.corrected_words ^ codeword_words) & message_mask)
        bit_errors += int(errors.sum())
        block_errors += int(np.count_nonzero(errors))
    bits = num_blocks * code.k
    return MonteCarloBERResult(
        code_name=getattr(code, "name", type(code).__name__),
        raw_ber=float(raw_ber),
        estimated_ber=bit_errors / bits,
        bits_simulated=bits,
        bit_errors=bit_errors,
        blocks_simulated=num_blocks,
        block_errors=block_errors,
    )
