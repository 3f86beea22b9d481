"""The cold solve path against its SciPy oracles.

:mod:`repro.coding.theory` inverts Eq. 2 with an in-tree port of SciPy's
Brent solver and evaluates the binomial tail with ``scipy.special.bdtrc``,
so that the package never imports ``scipy.optimize`` or ``scipy.stats``.
These tests keep both of those as oracles: the port must return SciPy's
roots bit for bit, and the tail must match ``binom.sf`` to 1e-13.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from repro.coding.hamming import HammingCode
from repro.coding.registry import available_codes, get_code
from repro.coding.theory import (
    _brentq,
    _raw_ber,
    block_error_probability,
    output_ber,
    raw_ber_for_target_output_ber,
)

CODED = [
    name for name in available_codes() if get_code(name).correctable_errors > 0
]

#: Log grid of post-decoding targets, 1e-18 .. 1e-2.
TARGETS = [float(x) for x in np.logspace(-18, -2, 33)]


def _scipy_raw_ber(code, target_ber: float) -> float:
    """The inversion as it was written against ``scipy.optimize.brentq``."""

    def objective(p: float) -> float:
        return output_ber(code, p) - target_ber

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

    def test_non_convergence_raises_like_scipy(self):
        def f(x):
            return math.cos(x) - x

        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, maxiter=2)
        with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
            _brentq(f, 0.0, 1.0, xtol=2e-12, rtol=1e-12, maxiter=2)


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
