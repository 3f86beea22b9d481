"""The cold solve path against its SciPy oracles.

:mod:`repro.coding.theory` inverts Eq. 2 with an in-tree port of SciPy's
Brent solver and evaluates the binomial tail with
:func:`repro.special.bdtrc`, so that the package never imports SciPy.
These tests keep ``scipy.optimize.brentq`` and ``scipy.stats.binom`` as
oracles: the port must return SciPy's roots bit for bit, and the tail must
match ``binom.sf`` to 1e-13 (``tests/channel/test_special_oracles.py``
bounds the tail against exact rational arithmetic).

The Brent objective itself runs on Python floats.  Its oracles here share
no code with it: Eq. 2 through the NumPy array path of
:func:`hamming_output_ber` (the path the objective took before), and the
bounded-distance sum as the per-term loop it was first written as.  The
float forms must return their bits exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from repro.coding import theory
from repro.coding.hamming import HammingCode
from repro.coding.registry import available_codes, get_code
from repro.coding.theory import (
    _brentq,
    _raw_ber,
    block_error_probability,
    coded_ber_bounded_distance,
    hamming_output_ber,
    output_ber,
    raw_ber_for_target_output_ber,
)

CODED = [
    name for name in available_codes() if get_code(name).correctable_errors > 0
]

#: Log grid of post-decoding targets, 1e-18 .. 1e-2.
TARGETS = [float(x) for x in np.logspace(-18, -2, 33)]


#: Raw BERs log-spaced over [1e-16, 0.4], plus 0 and both ends.
RAW_BERS = [0.0, 1e-16, *(float(x) for x in np.logspace(-16, np.log10(0.4), 1200)), 0.4]


def _per_term_bounded_distance(p: float, n: int, t: int) -> float:
    """The bounded-distance sum as first written: one ``comb`` per term."""
    total = 0.0
    for i in range(t + 1, n + 1):
        weight = min(i + t, n)
        total += weight * math.comb(n, i) * (p ** i) * ((1.0 - p) ** (n - i))
    return float(total / n)


def _oracle_output_ber(code, p: float) -> float:
    """Post-decoding BER without the float path under test."""
    t = code.correctable_errors
    if t == 0:
        return p
    if t == 1:
        return float(hamming_output_ber(np.asarray(p), code.n))
    return _per_term_bounded_distance(p, code.n, t)


def _bits(values) -> list:
    return [float(value).hex() for value in values]


def _scipy_raw_ber(code, target_ber: float) -> float:
    """The inversion as it was written against ``scipy.optimize.brentq``."""

    def objective(p: float) -> float:
        return _oracle_output_ber(code, p) - target_ber

    low, high = target_ber, 0.4
    if objective(low) > 0:
        return float(target_ber)
    while objective(high) < 0 and high < 0.499:
        high = min(0.499, high * 1.2)
    return float(brentq(objective, low, high, xtol=1e-18, rtol=1e-12))


class TestBrentPort:
    @pytest.mark.parametrize("name", CODED)
    def test_raw_ber_bit_identical_to_scipy(self, name):
        code = get_code(name)
        for target in TARGETS:
            assert raw_ber_for_target_output_ber(code, target) == _scipy_raw_ber(code, target)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0, 0.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 5.0, -3.0, 4.0),
            (lambda x: 1e-12 - x * x, 0.0, 1.0),
        ],
    )
    @pytest.mark.parametrize("xtol, rtol", [(2e-12, 4 * np.finfo(float).eps), (1e-18, 1e-12)])
    def test_generic_roots_bit_identical_to_scipy(self, f, a, b, xtol, rtol):
        assert _brentq(f, a, b, xtol=xtol, rtol=rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)

    def test_root_at_bracket_end_returned_directly(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12, rtol=1e-12) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12, rtol=1e-12) == 3.0

    def test_same_sign_bracket_raises_like_scipy(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=2e-12, rtol=1e-12)

    def test_non_convergence_raises_like_scipy(self, monkeypatch):
        monkeypatch.setattr(theory, "_BRENTQ_MAXITER", 2)

        def f(x):
            return math.cos(x) - x

        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, maxiter=2)
        with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
            _brentq(f, 0.0, 1.0, xtol=2e-12, rtol=1e-12)


class TestFloatObjective:
    @pytest.mark.parametrize("name", available_codes())
    def test_output_ber_bit_identical_to_oracle(self, name):
        code = get_code(name)
        assert _bits(output_ber(code, p) for p in RAW_BERS) == _bits(
            _oracle_output_ber(code, p) for p in RAW_BERS
        )

    @pytest.mark.parametrize("name", CODED)
    def test_bounded_distance_bit_identical_to_per_term_loop(self, name):
        n = get_code(name).n
        for t in (1, 2, get_code(name).correctable_errors):
            assert _bits(coded_ber_bounded_distance(p, n, t) for p in RAW_BERS) == _bits(
                _per_term_bounded_distance(p, n, t) for p in RAW_BERS
            )


class TestRawBerMemo:
    def test_equal_n_t_share_one_result(self):
        first, second = HammingCode(3), HammingCode(3)
        assert first is not second
        _raw_ber.cache_clear()
        a = raw_ber_for_target_output_ber(first, 1e-12)
        b = raw_ber_for_target_output_ber(second, 1e-12)
        assert a == b
        assert _raw_ber.cache_info().hits == 1

    def test_numpy_target_hits_the_float_entry(self):
        code = HammingCode(3)
        plain = raw_ber_for_target_output_ber(code, 1e-11)
        numpy_target = raw_ber_for_target_output_ber(code, np.float64(1e-11))
        assert type(numpy_target) is float
        assert numpy_target == plain


class TestBlockErrorProbability:
    @pytest.mark.parametrize("name", available_codes())
    def test_matches_binomial_survival_function(self, name):
        code = get_code(name)
        n = code.n
        for t in sorted({0, 1, 2, code.correctable_errors}):
            for p in [1e-12, *np.logspace(-11, -1, 21)]:
                expected = float(binom.sf(t, n, float(p)))
                assert block_error_probability(float(p), n, t) == pytest.approx(
                    expected, rel=1e-13, abs=0.0
                )

    def test_deep_tail_keeps_relative_accuracy(self):
        # 21 p^2 for H(7,4) at p = 1e-12: far below the epsilon of 1.
        assert block_error_probability(1e-12, 7, 1) == pytest.approx(21e-24, rel=1e-9)
