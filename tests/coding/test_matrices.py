"""Tests for GF(2) linear algebra: the package's primitives and the test oracle's."""

from __future__ import annotations

import numpy as np
import pytest
import coding.oracle as oracle

from repro.coding import matrices as m


class TestAsGf2:
    def test_reduces_modulo_two(self):
        assert np.array_equal(m.as_gf2([2, 3, 4, 5]), [0, 1, 0, 1])

    def test_returns_uint8(self):
        assert m.as_gf2([[1, 0], [0, 1]]).dtype == np.uint8

    def test_copies_input(self):
        original = np.array([1, 0, 1], dtype=np.uint8)
        result = m.as_gf2(original)
        result[0] = 0
        assert original[0] == 1


class TestMatmul:
    def test_identity(self):
        a = np.eye(3, dtype=np.uint8)
        b = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        assert np.array_equal(m.gf2_matmul(a, b), b)

    def test_xor_behaviour(self):
        # [1 1] * [[1],[1]] = 1 + 1 = 0 over GF(2).
        assert m.gf2_matmul([[1, 1]], [[1], [1]])[0, 0] == 0

    def test_matches_modulo_of_integer_product(self, rng):
        a = rng.integers(0, 2, size=(5, 7))
        b = rng.integers(0, 2, size=(7, 4))
        expected = (a @ b) % 2
        assert np.array_equal(m.gf2_matmul(a, b), expected)


class TestRrefAndRank:
    def test_rank_of_identity(self):
        assert oracle.gf2_rank(np.eye(6, dtype=np.uint8)) == 6

    def test_rank_of_duplicated_rows(self):
        matrix = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        assert oracle.gf2_rank(matrix) == 2

    def test_rref_pivots_are_unit_columns(self):
        matrix = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]], dtype=np.uint8)
        rref, pivots = oracle.gf2_rref(matrix)
        for row_index, col in enumerate(pivots):
            column = rref[:, col]
            assert column[row_index] == 1
            assert int(column.sum()) == 1

    def test_rref_does_not_modify_input(self):
        matrix = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        before = matrix.copy()
        oracle.gf2_rref(matrix)
        assert np.array_equal(matrix, before)


class TestNullSpace:
    def test_null_space_vectors_satisfy_hx_equals_zero(self):
        h = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]], dtype=np.uint8)
        basis = oracle.gf2_null_space(h)
        assert basis.shape[0] == 3
        for vector in basis:
            product = m.gf2_matmul(h, vector[:, np.newaxis])
            assert not product.any()

    def test_null_space_of_full_rank_square_matrix_is_empty(self):
        assert oracle.gf2_null_space(np.eye(4, dtype=np.uint8)).shape[0] == 0


class TestSystematicForms:
    def test_parity_check_from_generator(self):
        p = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]], dtype=np.uint8)
        generator = np.concatenate([np.eye(4, dtype=np.uint8), p], axis=1)
        parity_check = m.gf2_parity_check_from_systematic_generator(generator)
        # G H^T = 0 for every codeword.
        product = m.gf2_matmul(generator, parity_check.T)
        assert not product.any()

    def test_parity_check_requires_systematic_form(self):
        non_systematic = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            m.gf2_parity_check_from_systematic_generator(non_systematic)

    def test_generator_from_parity_check_spans_null_space(self):
        p = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]], dtype=np.uint8)
        generator = np.concatenate([np.eye(4, dtype=np.uint8), p], axis=1)
        parity_check = m.gf2_parity_check_from_systematic_generator(generator)
        recovered = oracle.gf2_systematic_generator_from_parity_check(parity_check)
        assert recovered.shape == generator.shape
        assert not m.gf2_matmul(recovered, parity_check.T).any()


class TestWeightsAndDistance:
    def test_hamming_weight(self):
        assert oracle.hamming_weight([1, 0, 1, 1, 0]) == 3

    def test_hamming_distance(self):
        assert oracle.hamming_distance([1, 0, 1], [0, 0, 1]) == 1

    def test_hamming_distance_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle.hamming_distance([1, 0], [1, 0, 1])

    def test_minimum_distance_of_hamming_7_4_is_three(self):
        from repro.coding.hamming import HammingCode

        code = HammingCode(3)
        assert oracle.minimum_distance_exhaustive(code.generator_matrix) == 3

    def test_minimum_distance_of_repetition_code(self):
        assert oracle.minimum_distance_exhaustive(np.ones((1, 5), dtype=np.uint8)) == 5

    def test_minimum_distance_refuses_huge_codes(self):
        with pytest.raises(ValueError):
            oracle.minimum_distance_exhaustive(np.eye(30, dtype=np.uint8), max_messages=1 << 10)
