"""Oracle tests of :mod:`repro.special` with explicit error bounds.

* ``erfc`` and ``erfcinv`` are ports of Cephes as SciPy ships it: bound
  0 ulp (``.hex()`` equality with ``scipy.special``) on dense log
  grids that include every branch threshold and its float neighbours.
* ``bdtrc`` for ``t >= 1`` sums the binomial series: bound 2e-14 relative
  to the exact tail in rational arithmetic.  For ``t = 0`` it is Cephes's
  closed form: bound 0 ulp against ``scipy.special.bdtrc``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from repro.special import bdtrc, erfc, erfcinv

MAXLOG = 7.09782712893383996843e2


def _around(*points: float) -> list:
    """Each point with its two float neighbours."""
    out = []
    for point in points:
        out += [math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)]
    return out


def _mismatches(port, oracle, xs) -> list:
    expected = oracle(np.asarray(xs, dtype=float)).tolist()
    return [
        (x, port(x).hex(), want.hex())
        for x, want in zip(xs, expected)
        if port(x).hex() != want.hex()
    ]


class TestErfc:
    # erf below 1, the P/Q fit below 8, the R/S fit above, underflow past
    # sqrt(MAXLOG); erfc(-a) = 2 - erfc(a) for negative arguments.
    THRESHOLDS = _around(1.0, 8.0, math.sqrt(MAXLOG), 0.5, 26.0)

    def test_log_grid_is_bit_identical(self):
        grid = np.geomspace(1e-300, 40.0, 40_000).tolist()
        xs = grid + [-x for x in grid[::4]] + self.THRESHOLDS + [-x for x in self.THRESHOLDS]
        assert _mismatches(erfc, scipy.special.erfc, xs) == []

    def test_linear_grid_is_bit_identical(self):
        xs = np.linspace(-7.0, 28.0, 40_001).tolist()
        assert _mismatches(erfc, scipy.special.erfc, xs) == []

    def test_special_values(self):
        assert erfc(0.0) == 1.0
        assert erfc(math.inf) == 0.0 and erfc(-math.inf) == 2.0
        assert math.isnan(erfc(math.nan))


class TestErfcinv:
    # ndtri's central fit for |y/2 - 0.5| < 0.5 - exp(-2), its P1/Q1 tail
    # fit down to y/2 = exp(-32) and its P2/Q2 fit below that.
    THRESHOLDS = _around(2 * math.exp(-2), 2 * (1 - math.exp(-2)), 2 * math.exp(-32), 1.0)

    def test_log_grid_is_bit_identical(self):
        grid = np.geomspace(1e-300, 2.0, 60_000).tolist()[:-1]
        xs = grid + [2.0 - y for y in grid if y < 1.0][::4] + self.THRESHOLDS
        assert _mismatches(erfcinv, scipy.special.erfcinv, xs) == []

    def test_the_link_range_is_bit_identical(self):
        # Eq. 1 runs on erfcinv(2 BER) for BER in (1e-30, 0.5).
        xs = (2.0 * np.geomspace(1e-30, 0.5, 40_000)[:-1]).tolist()
        assert _mismatches(erfcinv, scipy.special.erfcinv, xs) == []

    def test_domain_edges(self):
        assert erfcinv(0.0) == math.inf and erfcinv(2.0) == -math.inf
        assert math.isnan(erfcinv(-0.5)) and math.isnan(erfcinv(2.5))
        assert erfcinv(5e-324) == scipy.special.erfcinv(5e-324) == math.inf  # y / 2 underflows

    def test_round_trips_through_erfc(self):
        for y in np.geomspace(1e-20, 1.0, 50).tolist():
            assert erfc(erfcinv(y)) == pytest.approx(y, rel=1e-13)


def _exact_tail(t: int, n: int, p: float) -> Fraction:
    """``P[X > t]``, ``X ~ B(n, p)``, in exact rational arithmetic."""
    m, d = p.as_integer_ratio()
    head = sum(math.comb(n, i) * m**i * (d - m) ** (n - i) for i in range(t + 1))
    return Fraction(d**n - head, d**n)


class TestBdtrc:
    BLOCK_LENGTHS = (3, 7, 63, 71, 72, 127, 255)
    CORRECTABLE = (0, 1, 2, 3, 5)
    RAW_BERS = np.geomspace(1e-16, 0.49, 57).tolist() + [0.01, 0.3, 0.49]

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_within_2e_14_of_the_exact_tail(self, n):
        worst = 0.0
        for t in self.CORRECTABLE:
            if t >= n:
                continue
            for p in self.RAW_BERS:
                exact = _exact_tail(t, n, p)
                error = float(abs(Fraction(bdtrc(t, n, p)) - exact) / exact)
                worst = max(worst, error)
                assert error <= 2e-14, (t, n, p, error)
        assert worst > 0.0  # the bound is exercised, not vacuous

    def test_t0_is_cephes_bit_for_bit(self):
        ps = np.geomspace(1e-300, 1.0, 4_000).tolist() + _around(0.01) + [0.5, 0.99]
        for n in (1, 2, 3, 7, 63, 64, 71, 72, 127, 255, 1000):
            expected = scipy.special.bdtrc(0, n, np.asarray(ps)).tolist()
            bad = [(p, want) for p, want in zip(ps, expected) if bdtrc(0, n, p).hex() != want.hex()]
            assert bad == [], n

    def test_edges(self):
        assert bdtrc(3, 3, 0.2) == 0.0  # more than n errors never happen
        assert bdtrc(2, 7, 1.0) == 1.0
        assert bdtrc(2, 7, 0.0) == 0.0
