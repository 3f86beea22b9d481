"""Linear algebra over GF(2) with numpy uint8 matrices.

The code constructions in this package (Hamming, BCH, parity, SECDED) all
reduce to manipulating binary generator and parity-check matrices.  This
module gathers the GF(2) primitives they need: matrix products, row-reduced
echelon form, rank, null spaces, systematic forms and weight enumeration.

All matrices are ``numpy.ndarray`` objects with dtype ``uint8`` holding only
the values 0 and 1.  Functions always return new arrays and never modify
their arguments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "as_gf2",
    "gf2_matmul",
    "gf2_rref",
    "gf2_rank",
    "gf2_null_space",
    "gf2_systematic_generator_from_parity_check",
    "gf2_parity_check_from_systematic_generator",
    "hamming_weight",
    "hamming_distance",
    "minimum_distance_exhaustive",
]


def as_gf2(matrix, *, copy: bool = True) -> np.ndarray:
    """Coerce an array-like of 0/1 values into a GF(2) uint8 array.

    Values are reduced modulo 2 so integer matrices can be passed directly.
    With ``copy=False`` an input that already is a 0/1 ``uint8`` array is
    returned as is, for read-only consumers on a hot path.
    """
    arr = np.asarray(matrix)
    if arr.dtype == np.uint8 and arr.ndim and arr.size and arr.max(initial=0) <= 1:
        return arr.copy() if copy else arr
    return np.mod(arr.astype(np.int64), 2).astype(np.uint8)


def gf2_matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2)."""
    a2 = as_gf2(a)
    b2 = as_gf2(b)
    return np.mod(a2.astype(np.int64) @ b2.astype(np.int64), 2).astype(np.uint8)


def gf2_rref(matrix) -> Tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2).

    Returns the reduced matrix together with the list of pivot column
    indices.  The input is not modified.
    """
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
        others = np.nonzero(m[:, col])[0]
        for other in others:
            if other != row:
                m[other] ^= m[row]
        pivot_columns.append(col)
        row += 1
    return m, pivot_columns


def gf2_rank(matrix) -> int:
    """Rank of a binary matrix over GF(2)."""
    _, pivots = gf2_rref(matrix)
    return len(pivots)


def gf2_null_space(matrix) -> np.ndarray:
    """Basis of the right null space of a GF(2) matrix.

    Returns an array of shape ``(nullity, cols)`` whose rows span
    ``{x : matrix @ x = 0}``.  The rows are linearly independent.
    """
    m = as_gf2(matrix)
    rows, cols = m.shape
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
    """Build a systematic generator matrix ``[I_k | P]`` from a parity check.

    The parity-check matrix is first permuted (conceptually) into the form
    ``[A | I_{n-k}]`` via column operations implied by row reduction; the
    function assumes the parity-check matrix has full row rank and that its
    last ``n - k`` columns can serve as the identity part after reduction,
    which holds for the systematic constructions used in this package.  For
    arbitrary parity-check matrices use :func:`gf2_null_space` instead, which
    this function falls back to.
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
    # Reduce the null-space basis so the first k columns form an identity,
    # which yields a systematic generator when possible.
    rref, pivots = gf2_rref(null_basis)
    return rref


def gf2_parity_check_from_systematic_generator(generator) -> np.ndarray:
    """Build the parity-check matrix ``[P^T | I_{n-k}]`` of a systematic code.

    The generator must be in systematic form ``[I_k | P]``.
    """
    g = as_gf2(generator)
    k, n = g.shape
    identity = np.eye(k, dtype=np.uint8)
    if not np.array_equal(g[:, :k], identity):
        raise ValueError("generator matrix is not in systematic form [I_k | P]")
    p = g[:, k:]
    return np.concatenate([p.T, np.eye(n - k, dtype=np.uint8)], axis=1)


def hamming_weight(vector) -> int:
    """Number of ones in a binary vector."""
    return int(np.count_nonzero(as_gf2(vector)))


def hamming_distance(a, b) -> int:
    """Number of positions in which two equal-length binary vectors differ."""
    va = as_gf2(a)
    vb = as_gf2(b)
    if va.shape != vb.shape:
        raise ValueError("vectors must have identical shapes")
    return int(np.count_nonzero(va ^ vb))


def minimum_distance_exhaustive(generator, *, max_messages: int = 1 << 16) -> int:
    """Exact minimum distance of a linear code by codeword enumeration.

    Because the code is linear the minimum distance equals the minimum
    non-zero codeword weight.  Enumeration is exponential in ``k`` so the
    function refuses to enumerate more than ``max_messages`` codewords; it is
    intended for the small codes used in unit tests (k <= 16).
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
