"""Finite-field arithmetic over GF(2^m) for BCH code construction.

The BCH codes in :mod:`repro.coding.bch` need a Galois field to build their
parity-check matrices and to run Berlekamp/Chien-style decoding.  This module
provides a compact log/antilog-table implementation sufficient for the small
fields used on-chip (m up to 10).

The exponent and logarithm tables are NumPy ``int64`` arrays so the batch
decoders can evaluate syndromes for whole codeword batches with fancy
indexing (:attr:`GaloisField.exp_table` / :attr:`GaloisField.log_table`);
the scalar arithmetic API keeps returning plain ints.  Because table
construction is the expensive part, :func:`get_field` memoizes field
instances by ``(m, primitive_polynomial)`` so repeated sweeps stop
rebuilding them.
"""

from __future__ import annotations

import functools
from typing import List

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["GaloisField", "get_field", "DEFAULT_PRIMITIVE_POLYNOMIALS"]


# Primitive polynomials (as integer bit masks, LSB = x^0) for GF(2^m).
DEFAULT_PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    5: 0b100101,       # x^5 + x^2 + 1
    6: 0b1000011,      # x^6 + x + 1
    7: 0b10001001,     # x^7 + x^3 + 1
    8: 0b100011101,    # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,   # x^9 + x^4 + 1
    10: 0b10000001001, # x^10 + x^3 + 1
}


class GaloisField:
    """The finite field GF(2^m) represented with exponent/log tables.

    Elements are integers in ``[0, 2^m - 1]``; the zero element is 0 and the
    primitive element alpha is 2 (the polynomial ``x``).
    """

    def __init__(self, m: int):
        if m < 2 or m > 16:
            raise ConfigurationError("GF(2^m) supported for 2 <= m <= 16")
        if m not in DEFAULT_PRIMITIVE_POLYNOMIALS:
            raise ConfigurationError(f"no default primitive polynomial for m={m}")
        primitive_polynomial = DEFAULT_PRIMITIVE_POLYNOMIALS[m]
        self._m = m
        self._size = 1 << m
        self._exp = np.zeros(2 * self._size, dtype=np.int64)
        self._log = np.zeros(self._size, dtype=np.int64)
        value = 1
        for power in range(self._size - 1):
            self._exp[power] = value
            self._log[value] = power
            value <<= 1
            if value & self._size:
                value ^= primitive_polynomial
        if value != 1:
            raise ConfigurationError(
                f"polynomial {primitive_polynomial:#b} is not primitive for GF(2^{m})"
            )
        # Duplicate the exponent table so products of logs never need a modulo.
        for power in range(self._size - 1, 2 * self._size):
            self._exp[power] = self._exp[power - (self._size - 1)]
        self._exp.setflags(write=False)
        self._log.setflags(write=False)

    # ------------------------------------------------------------------ metadata
    @property
    def m(self) -> int:
        """Field extension degree."""
        return self._m

    @property
    def size(self) -> int:
        """Number of field elements 2^m."""
        return self._size

    @property
    def order(self) -> int:
        """Multiplicative group order 2^m - 1."""
        return self._size - 1

    @property
    def exp_table(self) -> np.ndarray:
        """Read-only antilog table: ``exp_table[i] = alpha^i`` (doubled length).

        Used by the batch BCH decoder to evaluate syndromes with fancy
        indexing instead of per-element Python calls.
        """
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        """Read-only log table: ``log_table[a] = log_alpha(a)`` (undefined at 0)."""
        return self._log

    # ------------------------------------------------------------------ arithmetic
    def add(self, a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def power(self, a: int, exponent: int) -> int:
        """Raise a field element to an integer power."""
        if a == 0:
            return 0 if exponent > 0 else 1
        log_a = int(self._log[a])
        return int(self._exp[(log_a * exponent) % self.order])

    def alpha_power(self, exponent: int) -> int:
        """Return alpha^exponent where alpha is the primitive element."""
        return int(self._exp[exponent % self.order])

    def log(self, a: int) -> int:
        """Discrete logarithm base alpha."""
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
        return int(self._log[a])

    # ------------------------------------------------------------------ polynomials
    def minimal_polynomial(self, element: int) -> List[int]:
        """Minimal polynomial over GF(2) of a field element.

        Returned as a list of 0/1 coefficients, lowest order first.  Used by
        the BCH generator-polynomial construction.
        """
        if element == 0:
            return [0, 1]
        # Conjugacy class of the element under squaring.
        conjugates = []
        current = element
        while current not in conjugates:
            conjugates.append(current)
            current = self.multiply(current, current)
        # Multiply (x - c) over all conjugates; arithmetic stays in GF(2^m)
        # but the result has coefficients in GF(2).
        poly = [1]
        for conjugate in conjugates:
            next_poly = [0] * (len(poly) + 1)
            for degree, coefficient in enumerate(poly):
                next_poly[degree + 1] ^= coefficient
                next_poly[degree] ^= self.multiply(coefficient, conjugate)
            poly = next_poly
        if any(c not in (0, 1) for c in poly):
            raise ConfigurationError("minimal polynomial did not reduce to GF(2) coefficients")
        return poly


@functools.lru_cache(maxsize=None)
def get_field(m: int) -> GaloisField:
    """Memoized :class:`GaloisField` constructor keyed by ``m``.

    Field tables are immutable, so sharing one instance across every BCH
    code and sweep iteration is safe and avoids rebuilding the log/antilog
    tables on each construction.
    """
    return GaloisField(m)
