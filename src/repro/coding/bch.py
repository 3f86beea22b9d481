"""Binary BCH codes with configurable error-correction capability.

The paper chose Hamming codes "for their simplicity, but other coding
techniques can be used".  BCH codes are the natural next step: they keep the
same algebraic structure (cyclic, defined by a generator polynomial over
GF(2)) but correct ``t >= 2`` errors per block, allowing even lower laser
power at the cost of more parity bits and a more complex decoder.  They are
used by the extension experiments and the design-space sweeps.

The implementation constructs the generator polynomial as the least common
multiple of the minimal polynomials of ``alpha, alpha^2, ..., alpha^{2t}``
and decodes with the Berlekamp–Massey / Chien-search procedure, which is
adequate for the small ``t`` (2 or 3) relevant on-chip.

Batch decoding is fully vectorized and rides the packed substrate: the
``2t`` power-sum syndromes of every block come from bit-sliced byte tables
gathered straight off the packed word image, and the errored blocks run a
fixed ``2t``-iteration *branchless* Berlekamp–Massey over the GF log/antilog
tables — every iteration updates all errored rows at once with boolean
masks instead of branching per block — followed by a Chien search expressed
as one ``alpha^{-i·j}`` table evaluation over all candidate positions.  The
per-block Python BM/Chien survives in the test suite as the reference
decoder the equivalence tests pin the batch path against, including
beyond-``t`` failure patterns.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..exceptions import ConfigurationError
from .base import LinearBlockCode, PackedBatchDecodeResult
from .galois import GaloisField, get_field
from .packed import byte_lookup_tables, fold_byte_tables, pack_bits, packed_byte_view

__all__ = ["BCHCode"]


def _poly_mul_gf2(a: List[int], b: List[int]) -> List[int]:
    """Multiply two GF(2) polynomials given lowest-order-first."""
    result = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            result[i + j] ^= ca & cb
    return result


def _poly_divmod_gf2(dividend: List[int], divisor: List[int]) -> tuple[List[int], List[int]]:
    """Polynomial division over GF(2); returns (quotient, remainder)."""
    if not any(divisor):
        # Without this guard an all-zero divisor degenerates the
        # trailing-zero strip loop to the zero polynomial and the division
        # silently produces garbage.
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    remainder = list(dividend)
    deg_divisor = len(divisor) - 1
    while len(divisor) > 1 and divisor[-1] == 0:
        divisor = divisor[:-1]
        deg_divisor -= 1
    quotient = [0] * max(1, len(dividend) - deg_divisor)
    for shift in range(len(remainder) - 1, deg_divisor - 1, -1):
        if remainder[shift]:
            quotient[shift - deg_divisor] = 1
            for i, c in enumerate(divisor):
                remainder[shift - deg_divisor + i] ^= c
    while len(remainder) > 1 and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


class BCHCode(LinearBlockCode):
    """Primitive binary BCH code of length ``2^m - 1`` correcting ``t`` errors."""

    def __init__(self, m: int, t: int):
        if t < 1:
            raise ConfigurationError("BCH correction capability t must be >= 1")
        field = get_field(m)
        n = field.order
        generator_poly = self._build_generator_polynomial(field, t)
        num_parity = len(generator_poly) - 1
        k = n - num_parity
        if k <= 0:
            raise ConfigurationError(
                f"BCH(m={m}, t={t}) has no payload bits (n={n}, parity={num_parity})"
            )
        generator_matrix = self._systematic_generator(generator_poly, n, k)
        super().__init__(
            generator_matrix,
            name=f"BCH({n},{k},t={t})",
            minimum_distance=2 * t + 1,
        )
        self._field = field
        self._t = t
        self._syndrome_eval: np.ndarray | None = None
        self._syndrome_byte_tables_cache: np.ndarray | None = None
        self._chien_exponents: np.ndarray | None = None
        num_parity = n - k
        # Cyclic-polynomial coefficient p lives at systematic bit k+p when it
        # is a parity coefficient (p < n-k) and at message bit p-(n-k)
        # otherwise; these two permutations translate between the layouts.
        positions = np.arange(n)
        self._coeff_to_systematic = np.where(
            positions < num_parity, k + positions, positions - num_parity
        )
        self._systematic_to_coeff = np.where(
            positions < k, positions + num_parity, positions - k
        )

    # ------------------------------------------------------------------ construction
    @staticmethod
    def _build_generator_polynomial(field: GaloisField, t: int) -> List[int]:
        """LCM of the minimal polynomials of alpha^1 .. alpha^{2t}."""
        generator = [1]
        seen_roots: set[int] = set()
        for exponent in range(1, 2 * t + 1):
            element = field.alpha_power(exponent)
            if element in seen_roots:
                continue
            minimal = field.minimal_polynomial(element)
            # Record the conjugacy class so each minimal polynomial enters once.
            conjugate = element
            while conjugate not in seen_roots:
                seen_roots.add(conjugate)
                conjugate = field.multiply(conjugate, conjugate)
            generator = _poly_mul_gf2(generator, minimal)
        return generator

    @staticmethod
    def _systematic_generator(generator_poly: List[int], n: int, k: int) -> np.ndarray:
        """Systematic generator matrix of the cyclic code.

        Row ``i`` encodes the message monomial ``x^i``: the codeword is
        ``[message | parity]`` where parity is the remainder of
        ``x^{n-k} * x^i`` divided by the generator polynomial.
        """
        num_parity = n - k
        rows = np.zeros((k, n), dtype=np.uint8)
        for i in range(k):
            shifted = [0] * (num_parity + i) + [1]
            _, remainder = _poly_divmod_gf2(shifted, generator_poly)
            rows[i, i] = 1
            for degree, coefficient in enumerate(remainder):
                rows[i, k + degree] = coefficient
        return rows

    # ------------------------------------------------------------------ metadata
    @property
    def t(self) -> int:
        """Designed error-correction capability."""
        return self._t

    # ------------------------------------------------------------------ decoding
    def _syndrome_eval_matrix(self) -> np.ndarray:
        """``alpha^{j·i}`` evaluation matrix of shape ``(2t, n)``.

        Row ``j-1``, column ``i`` holds ``alpha^{j·i mod (2^m - 1)}``, so the
        power-sum syndrome ``S_j = r(alpha^j)`` of every block reduces to an
        XOR-reduction of the selected matrix entries.
        """
        if self._syndrome_eval is None:
            exponents = (
                np.outer(np.arange(1, 2 * self._t + 1), np.arange(self.n))
                % self._field.order
            )
            self._syndrome_eval = self._field.exp_table[exponents]
        return self._syndrome_eval

    def _syndrome_byte_tables(self) -> np.ndarray:
        """Bit-sliced syndrome tables: ``(ceil(n/8), 256, 2t)`` partial power sums.

        Entry ``[i, v]`` holds the XOR of ``alpha^{j·p}`` contributions of
        every bit set in byte value ``v`` at byte position ``i`` of the
        *systematic* word, so the ``2t`` syndromes of a whole batch are
        ``ceil(n/8)`` table gathers over the packed byte image — no
        unpacking, no ``(B, 2t, n)`` intermediate.
        """
        if self._syndrome_byte_tables_cache is None:
            # Per-bit contribution of systematic bit s: the 2t powers
            # alpha^{j·p} of its cyclic coefficient position p.
            eval_matrix = self._syndrome_eval_matrix()
            contributions = eval_matrix[:, self._systematic_to_coeff].T
            self._syndrome_byte_tables_cache = byte_lookup_tables(
                np.ascontiguousarray(contributions)
            )
        return self._syndrome_byte_tables_cache

    def _batch_syndromes_packed(self, words: np.ndarray) -> np.ndarray:
        """Power-sum syndromes ``S_1 .. S_2t`` of a packed ``(B, W)`` batch."""
        return fold_byte_tables(self._syndrome_byte_tables(), packed_byte_view(words))

    # -------------------------------------------------------- batch BM + Chien
    def _gf_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise GF(2^m) product through the log/antilog tables."""
        field = self._field
        product = field.exp_table[field.log_table[a] + field.log_table[b]]
        return np.where((a == 0) | (b == 0), 0, product)

    def _batch_berlekamp_massey(self, syndromes: np.ndarray) -> np.ndarray:
        """Branchless batch Berlekamp–Massey over all errored rows at once.

        Runs the fixed ``2t`` iterations of the scalar algorithm with every
        per-row branch replaced by a boolean mask, so the whole ``(R, 2t)``
        syndrome matrix advances in lock-step.  Returns the ``(R, 2t+1)`` error-locator coefficients
        (degree can reach ``2t`` for uncorrectable patterns); rows follow the
        scalar recursion exactly, which the equivalence tests rely on.
        """
        field = self._field
        exp = field.exp_table
        log = field.log_table
        order = field.order
        num_rows = syndromes.shape[0]
        two_t = 2 * self._t
        width = two_t + 1
        locator = np.zeros((num_rows, width), dtype=np.int64)
        locator[:, 0] = 1
        previous = np.zeros_like(locator)
        previous[:, 0] = 1
        length = np.zeros(num_rows, dtype=np.int64)
        shift = np.ones(num_rows, dtype=np.int64)
        previous_discrepancy = np.ones(num_rows, dtype=np.int64)
        columns = np.arange(width)

        for index in range(two_t):
            discrepancy = syndromes[:, index].copy()
            for j in range(1, min(index, two_t) + 1):
                term = self._gf_mul(locator[:, j], syndromes[:, index - j])
                discrepancy ^= np.where(j <= length, term, 0)
            nonzero = discrepancy != 0
            # coefficient = discrepancy / previous_discrepancy (never zero).
            inverse = exp[order - log[previous_discrepancy]]
            coefficient = self._gf_mul(discrepancy, inverse)
            # correction = x^shift * coefficient * previous, one shift per row.
            shifted = columns[np.newaxis, :] - shift[:, np.newaxis]
            gathered = np.take_along_axis(previous, np.clip(shifted, 0, width - 1), axis=1)
            correction = np.where(
                shifted >= 0, self._gf_mul(coefficient[:, np.newaxis], gathered), 0
            )
            updated = locator ^ np.where(nonzero[:, np.newaxis], correction, 0)
            promote = nonzero & (2 * length <= index)
            previous = np.where(promote[:, np.newaxis], locator, previous)
            previous_discrepancy = np.where(promote, discrepancy, previous_discrepancy)
            length = np.where(promote, index + 1 - length, length)
            shift = np.where(promote, 1, shift + 1)
            locator = updated
        return locator

    def _chien_exponent_matrix(self) -> np.ndarray:
        """``(t, n)`` exponents of ``alpha^{-i·j}`` for the batch Chien search."""
        if self._chien_exponents is None:
            order = self._field.order
            self._chien_exponents = (
                -np.outer(np.arange(1, self._t + 1), np.arange(self.n))
            ) % order
        return self._chien_exponents

    def _batch_chien(self, locator: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Roots of every locator at once: one ``alpha^{-i·j}`` table evaluation.

        Returns ``(roots, success)`` where ``roots`` is the ``(R, n)``
        boolean matrix of error positions in *coefficient* order and
        ``success`` marks rows whose locator has exactly ``degree`` roots
        with ``degree <= t`` — the same acceptance rule as the scalar
        Chien search.
        """
        field = self._field
        exp = field.exp_table
        log = field.log_table
        exponents = self._chien_exponent_matrix()
        evaluation = np.ones((locator.shape[0], self.n), dtype=np.int64)
        for j in range(1, self._t + 1):
            coefficient = locator[:, j]
            contribution = exp[log[coefficient][:, np.newaxis] + exponents[j - 1][np.newaxis, :]]
            evaluation ^= np.where((coefficient != 0)[:, np.newaxis], contribution, 0)
        roots = evaluation == 0
        success = (degree <= self._t) & (roots.sum(axis=1) == degree)
        return roots, success

    def decode_batch_packed(self, received_words) -> PackedBatchDecodeResult:
        """Packed batch decoding: byte-table syndromes, batch BM, batch Chien.

        Syndromes of the whole batch gather from the packed byte image;
        the errored rows (rare at operating raw BERs) run the branchless
        batch Berlekamp–Massey and the tabulated Chien search together, and
        the located error positions are applied as packed XOR masks.
        """
        words = self._require_packed(received_words, self.n)
        syndromes = self._batch_syndromes_packed(words)
        detected = syndromes.any(axis=1)
        errored = np.nonzero(detected)[0]
        if errored.size == 0:
            # ``detected`` is all False: it doubles as the failure mask.
            return PackedBatchDecodeResult(corrected_words=words, failure=detected)
        locator = self._batch_berlekamp_massey(syndromes[errored])
        nonzero_columns = locator != 0
        degree = locator.shape[1] - 1 - np.argmax(nonzero_columns[:, ::-1], axis=1)
        roots, success = self._batch_chien(locator, degree)
        failure = np.zeros(words.shape[0], dtype=bool)
        failure[errored[~success]] = True
        corrected_words = words.copy()
        fixed = errored[success]
        if fixed.size:
            systematic = np.zeros((int(success.sum()), self.n), dtype=np.uint8)
            systematic[:, self._coeff_to_systematic] = roots[success]
            corrected_words[fixed] ^= pack_bits(systematic)
        return PackedBatchDecodeResult(corrected_words=corrected_words, failure=failure)
