"""Linear algebra over GF(2) with numpy uint8 matrices.

The code constructions in this package (Hamming, BCH, parity, SECDED) all
reduce to manipulating binary generator and parity-check matrices.  This
module gathers the GF(2) primitives they need: coercion, matrix products,
the parity check of a systematic generator and Hamming weights.

All matrices are ``numpy.ndarray`` objects with dtype ``uint8`` holding only
the values 0 and 1.  Functions always return new arrays and never modify
their arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_gf2",
    "gf2_matmul",
    "gf2_parity_check_from_systematic_generator",
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
