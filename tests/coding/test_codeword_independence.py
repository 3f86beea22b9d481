"""Coding outcomes do not depend on the transmitted codeword.

The Monte-Carlo estimator and the network simulator's bit-exact sampler
decode error patterns on the all-zero codeword instead of encoding random
messages.  That is sound because every registry decoder is linear in the
received word: ``decode(c ⊕ e) == c ⊕ decode(e)`` with the same
``detected``/``corrected``/``failure`` flags, for every codeword ``c`` and
every error pattern ``e`` — beyond the correction radius and for errors that
are themselves codewords too.  These tests check that property (exhaustively
for the small codes, by hypothesis for every registry code) and pin the
estimator against the round-trip estimator of the test oracle: same counts,
same generator state afterwards.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coding.oracle import estimate_ber_round_trip
from repro.coding.montecarlo import estimate_ber_monte_carlo
from repro.coding.packed import pack_bits
from repro.coding.registry import get_code

#: The default registry: uncoded, repetition, Hamming, SECDED and BCH.
REGISTRY_CODES = (
    "uncoded",
    "REP(3,1)",
    "H(7,4)",
    "H(15,11)",
    "H(31,26)",
    "H(63,57)",
    "H(71,64)",
    "H(127,120)",
    "SECDED(8,4)",
    "SECDED(72,64)",
    "BCH(63,t=2)",
)

#: The six codes of the ``coding_mc`` benchmark workload.
ESTIMATOR_CODES = ("H(71,64)", "SECDED(72,64)", "BCH(63,t=2)", "H(7,4)", "REP(3,1)", "uncoded")


def _assert_decoding_commutes(code, codeword_words, error_words):
    received = code.decode_batch_packed(codeword_words ^ error_words)
    residual = code.decode_batch_packed(error_words)
    assert np.array_equal(received.corrected_words, codeword_words ^ residual.corrected_words)
    assert np.array_equal(received.detected_error, residual.detected_error)
    assert np.array_equal(received.corrected, residual.corrected)
    assert np.array_equal(received.failure, residual.failure)


@pytest.mark.parametrize("name", ["H(7,4)", "SECDED(8,4)", "REP(3,1)"])
def test_every_codeword_and_error_pattern_of_small_codes(name):
    code = get_code(name)
    messages = np.array(list(itertools.product((0, 1), repeat=code.k)), dtype=np.uint8)
    errors = np.array(list(itertools.product((0, 1), repeat=code.n)), dtype=np.uint8)
    codeword_words = code.encode_batch_packed(pack_bits(messages))
    error_words = pack_bits(errors)
    for row in codeword_words:
        _assert_decoding_commutes(
            code, np.broadcast_to(row, error_words.shape).copy(), error_words
        )


#: How one row's error pattern is built: ``w`` random flips, a codeword, or
#: a codeword plus ``w`` random flips.
ERROR_KINDS = ("flips", "codeword", "codeword+flips")


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(REGISTRY_CODES),
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(st.sampled_from(ERROR_KINDS), st.integers(0, 1 << 16)),
        min_size=1,
        max_size=24,
    ),
)
def test_decoding_commutes_with_every_codeword(name, seed, rows):
    code = get_code(name)
    n, k = code.n, code.k
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, size=(len(rows), k), dtype=np.uint8)
    codeword_words = code.encode_batch_packed(pack_bits(messages))
    other = code.encode_batch_packed(
        pack_bits(rng.integers(0, 2, size=(len(rows), k), dtype=np.uint8))
    )
    flips = np.zeros((len(rows), n), dtype=np.uint8)
    for row, (_kind, weight) in enumerate(rows):
        # Every weight from 0 to n, far beyond the correction radius.
        flips[row, rng.choice(n, size=weight % (n + 1), replace=False)] = 1
    error_words = pack_bits(flips)
    for row, (kind, _weight) in enumerate(rows):
        if kind == "codeword":
            error_words[row] = other[row]
        elif kind == "codeword+flips":
            error_words[row] ^= other[row]
    _assert_decoding_commutes(code, codeword_words, error_words)


@pytest.mark.parametrize("name", ESTIMATOR_CODES)
@pytest.mark.parametrize(
    "raw_ber,num_blocks,batch_size",
    [
        (0.0, 700, 256),
        (0.5, 700, 256),
        (2e-2, 3000, 1024),
        (5e-3, 2500, 8192),
        (1e-1, 1025, 1024),
    ],
)
def test_estimator_matches_the_round_trip_oracle(name, raw_ber, num_blocks, batch_size):
    code = get_code(name)
    candidate_rng = np.random.default_rng(np.random.SeedSequence(99))
    oracle_rng = np.random.default_rng(np.random.SeedSequence(99))
    result = estimate_ber_monte_carlo(
        code, raw_ber, num_blocks=num_blocks, rng=candidate_rng, batch_size=batch_size
    )
    expected = estimate_ber_round_trip(
        code, raw_ber, num_blocks=num_blocks, generator=oracle_rng, batch_size=batch_size
    )
    assert result == expected
    # Later draws on a shared generator see the same stream.
    assert candidate_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_estimator_seeds_like_the_oracle():
    """``seed=`` builds the same generator the oracle is handed."""
    code = get_code("SECDED(72,64)")
    result = estimate_ber_monte_carlo(code, 2e-2, num_blocks=3000, seed=99)
    expected = estimate_ber_round_trip(
        code, 2e-2, num_blocks=3000, generator=np.random.default_rng(99)
    )
    assert result == expected
