"""Tests for unit conversions and SI prefixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units


class TestDecibelConversions:
    def test_db_to_linear_of_zero_is_one(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)

    def test_db_to_linear_of_ten_is_ten(self):
        assert units.db_to_linear(10.0) == pytest.approx(10.0)

    def test_db_to_linear_of_three_is_about_two(self):
        assert units.db_to_linear(3.0) == pytest.approx(2.0, rel=1e-2)

    def test_linear_to_db_round_trip(self):
        for value in (0.01, 0.5, 1.0, 4.898, 123.4):
            assert units.db_to_linear(units.linear_to_db(value)) == pytest.approx(value)

    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)
        with pytest.raises(ValueError):
            units.linear_to_db(-1.0)

    def test_linear_to_db_array_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.linear_to_db(np.array([1.0, 0.0]))

    def test_db_loss_to_transmission_three_db_is_half(self):
        assert units.db_loss_to_transmission(3.0103) == pytest.approx(0.5, rel=1e-4)

    def test_db_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            units.db_loss_to_transmission(-0.1)
