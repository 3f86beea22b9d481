"""Tests for GF(2^m) arithmetic and BCH codes."""

from __future__ import annotations

import numpy as np
import pytest
from coding.oracle import (
    bch_codeword_polynomial,
    bch_field,
    decode_packed,
    encode_reference,
    gf_divide,
    gf_inverse,
    gf_poly_eval,
    minimum_distance_exhaustive,
)

from repro.coding.bch import BCHCode
from repro.coding.galois import DEFAULT_PRIMITIVE_POLYNOMIALS, GaloisField
from repro.coding.packed import pack_bits, unpack_bits
from repro.exceptions import ConfigurationError


class TestGaloisField:
    def test_field_sizes(self):
        field = GaloisField(4)
        assert field.size == 16
        assert field.order == 15
        assert field.m == 4

    def test_addition_is_xor(self):
        field = GaloisField(4)
        assert field.add(0b1010, 0b0110) == 0b1100

    def test_multiplication_by_zero_and_one(self):
        field = GaloisField(4)
        for element in range(field.size):
            assert field.multiply(element, 0) == 0
            assert field.multiply(element, 1) == element

    def test_multiplicative_inverse(self):
        field = GaloisField(5)
        for element in range(1, field.size):
            assert field.multiply(element, gf_inverse(field, element)) == 1

    def test_inverse_of_zero_raises(self):
        field = GaloisField(3)
        with pytest.raises(ZeroDivisionError):
            gf_inverse(field, 0)

    def test_alpha_powers_cycle_with_period_order(self):
        field = GaloisField(4)
        assert field.alpha_power(0) == 1
        assert field.alpha_power(field.order) == 1
        seen = {field.alpha_power(i) for i in range(field.order)}
        assert len(seen) == field.order  # alpha is primitive

    def test_power_and_log_are_consistent(self):
        field = GaloisField(4)
        for exponent in range(1, field.order):
            element = field.alpha_power(exponent)
            assert field.log(element) == exponent

    def test_division(self):
        field = GaloisField(4)
        a, b = 9, 5
        assert field.multiply(gf_divide(field, a, b), b) == a

    def test_minimal_polynomial_of_alpha_is_the_primitive_polynomial(self):
        field = GaloisField(4)
        minimal = field.minimal_polynomial(2)  # alpha
        # x^4 + x + 1 -> coefficients lowest-order first.
        assert minimal == [1, 1, 0, 0, 1]

    def test_minimal_polynomial_has_element_as_root(self):
        field = GaloisField(5)
        element = field.alpha_power(3)
        minimal = field.minimal_polynomial(element)
        assert gf_poly_eval(field, minimal, element) == 0

    def test_rejects_unsupported_sizes(self):
        with pytest.raises(ConfigurationError):
            GaloisField(1)
        with pytest.raises(ConfigurationError):
            GaloisField(20)

    def test_rejects_non_primitive_polynomial(self, monkeypatch):
        # x^4 + x^2 + 1 = (x^2+x+1)^2 is not primitive.
        monkeypatch.setitem(DEFAULT_PRIMITIVE_POLYNOMIALS, 4, 0b10101)
        with pytest.raises(ConfigurationError):
            GaloisField(4)


class TestBCHCode:
    def test_bch_15_7_parameters(self):
        code = BCHCode(4, 2)
        assert code.n == 15
        assert code.k == 7
        assert code.t == 2
        assert minimum_distance_exhaustive(code.generator_matrix) == 5

    def test_bch_63_t2_parameters(self):
        code = BCHCode(6, 2)
        assert code.n == 63
        assert code.k == 51

    def test_single_error_correction(self, rng):
        code = BCHCode(4, 2)
        message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for position in range(code.n):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = decode_packed(code, corrupted)
            assert result.corrected, f"failed at position {position}"
            assert np.array_equal(result.message_bits, message)

    def test_double_error_correction(self, rng):
        code = BCHCode(4, 2)
        message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for first in range(0, code.n, 3):
            for second in range(first + 1, code.n, 4):
                corrupted = codeword.copy()
                corrupted[first] ^= 1
                corrupted[second] ^= 1
                result = decode_packed(code, corrupted)
                assert np.array_equal(result.message_bits, message), (first, second)

    def test_double_error_correction_on_larger_code(self, rng):
        code = BCHCode(6, 2)
        message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        codeword = encode_reference(code, message)
        for _ in range(15):
            positions = rng.choice(code.n, size=2, replace=False)
            corrupted = codeword.copy()
            corrupted[positions] ^= 1
            result = decode_packed(code, corrupted)
            assert np.array_equal(result.message_bits, message)

    def test_error_free_block_is_untouched(self, rng):
        code = BCHCode(4, 2)
        message = rng.integers(0, 2, size=(1, code.k), dtype=np.uint8)
        codeword = code.encode_batch_packed(pack_bits(message))
        result = code.decode_batch_packed(codeword)
        assert np.array_equal(result.corrected_words, codeword)
        assert not result.failure.any()
        assert np.array_equal(unpack_bits(result.corrected_words, code.n)[:, : code.k], message)

    def test_generator_polynomial_divides_codewords(self, rng):
        code = BCHCode(4, 2)
        # Every codeword evaluated at the BCH roots alpha^1..alpha^2t is zero.
        field = bch_field(code)
        message = rng.integers(0, 2, size=(1, code.k), dtype=np.uint8)
        codeword = unpack_bits(code.encode_batch_packed(pack_bits(message)), code.n)[0]
        poly = bch_codeword_polynomial(code, codeword)
        for exponent in range(1, 2 * code.t + 1):
            assert gf_poly_eval(field, poly, field.alpha_power(exponent)) == 0

    def test_rejects_invalid_t(self):
        with pytest.raises(ConfigurationError):
            BCHCode(4, 0)

    def test_rejects_overfull_codes(self):
        with pytest.raises(ConfigurationError):
            BCHCode(3, 4)  # the generator polynomial consumes the whole length-7 block

    def test_degenerate_bch_is_repetition_like(self):
        # BCH(m=3, t=3) keeps a single payload bit: the (7,1) repetition-like code.
        code = BCHCode(3, 3)
        assert code.k == 1


class TestPolynomialDivision:
    def test_division_round_trips(self):
        from repro.coding.bch import _poly_divmod_gf2, _poly_mul_gf2

        dividend = [1, 0, 1, 1, 0, 1]
        divisor = [1, 1, 0, 1]
        quotient, remainder = _poly_divmod_gf2(dividend, divisor)
        recombined = _poly_mul_gf2(quotient, divisor)
        recombined = [
            c ^ (remainder[i] if i < len(remainder) else 0)
            for i, c in enumerate(recombined)
        ]
        assert recombined == dividend[: len(recombined)]

    def test_zero_divisor_is_rejected(self):
        # Regression: an all-zero divisor used to degenerate the
        # trailing-zero strip loop and silently produce garbage.
        from repro.coding.bch import _poly_divmod_gf2

        with pytest.raises(ZeroDivisionError):
            _poly_divmod_gf2([1, 0, 1], [0, 0, 0])
        with pytest.raises(ZeroDivisionError):
            _poly_divmod_gf2([1, 1], [0])
