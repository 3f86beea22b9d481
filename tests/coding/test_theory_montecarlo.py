"""Tests for the analytic BER expressions and their Monte-Carlo validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.coding.montecarlo import estimate_ber_monte_carlo
from repro.coding.registry import get_code
from repro.coding.theory import (
    block_error_probability,
    code_rate,
    coded_ber_bounded_distance,
    hamming_output_ber,
    output_ber,
    raw_ber_for_target_output_ber,
)
from repro.coding.uncoded import UncodedScheme
from repro.exceptions import ConfigurationError


class TestCodeRate:
    def test_basic_values(self):
        assert code_rate(7, 4) == pytest.approx(4.0 / 7.0)
        assert code_rate(71, 64) == pytest.approx(64.0 / 71.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            code_rate(4, 7)
        with pytest.raises(ConfigurationError):
            code_rate(7, 0)


class TestHammingOutputBer:
    def test_paper_equation_two_form(self):
        # BER = p - p(1-p)^(n-1) exactly.
        p, n = 1e-3, 7
        assert hamming_output_ber(p, n) == pytest.approx(p - p * (1 - p) ** (n - 1))

    def test_small_p_quadratic_behaviour(self):
        p, n = 1e-6, 7
        assert hamming_output_ber(p, n) == pytest.approx((n - 1) * p * p, rel=1e-3)

    def test_zero_and_extreme_inputs(self):
        assert hamming_output_ber(0.0, 7) == 0.0
        assert hamming_output_ber(1.0, 7) == pytest.approx(1.0)

    def test_output_is_below_input_for_small_p(self):
        for p in (1e-2, 1e-4, 1e-6):
            assert hamming_output_ber(p, 7) < p
            assert hamming_output_ber(p, 71) < p

    def test_longer_blocks_give_higher_residual_ber(self):
        p = 1e-4
        assert hamming_output_ber(p, 71) > hamming_output_ber(p, 7)

    def test_vectorised_input(self):
        p = np.array([1e-3, 1e-4, 1e-5])
        result = hamming_output_ber(p, 7)
        assert result.shape == p.shape
        assert np.all(result < p)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hamming_output_ber(-0.1, 7)
        with pytest.raises(ConfigurationError):
            hamming_output_ber(0.5, 1)

    @pytest.mark.parametrize("raw_ber", [np.nan, np.array([1e-3, np.nan])])
    def test_nan_rejected(self, raw_ber):
        with pytest.raises(ConfigurationError):
            hamming_output_ber(raw_ber, 7)

    def test_output_ber_rejects_nan_on_the_hamming_branch(self):
        with pytest.raises(ConfigurationError):
            output_ber(HammingCode(3), float("nan"))


class TestBoundedDistanceBer:
    def test_t_zero_is_passthrough(self):
        assert coded_ber_bounded_distance(1e-3, 64, 0) == pytest.approx(1e-3)

    def test_t_one_tracks_hamming_equation(self):
        p = 1e-4
        approx = coded_ber_bounded_distance(p, 7, 1)
        exact = hamming_output_ber(p, 7)
        assert approx == pytest.approx(exact, rel=0.5)

    def test_more_correction_means_lower_residual(self):
        p = 1e-3
        t1 = coded_ber_bounded_distance(p, 63, 1)
        t2 = coded_ber_bounded_distance(p, 63, 2)
        t3 = coded_ber_bounded_distance(p, 63, 3)
        assert t3 < t2 < t1

    def test_zero_raw_ber(self):
        assert coded_ber_bounded_distance(0.0, 15, 2) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            coded_ber_bounded_distance(2.0, 7, 1)
        with pytest.raises(ConfigurationError):
            coded_ber_bounded_distance(0.1, 0, 1)
        with pytest.raises(ConfigurationError):
            coded_ber_bounded_distance(0.1, 7, -1)


class TestOutputBerDispatch:
    def test_uncoded_passthrough(self):
        assert output_ber(UncodedScheme(64), 1e-5) == pytest.approx(1e-5)

    def test_hamming_uses_equation_two(self):
        code = HammingCode(3)
        assert output_ber(code, 1e-4) == pytest.approx(hamming_output_ber(1e-4, 7))

    def test_bch_uses_bounded_distance(self):
        from repro.coding.bch import BCHCode

        code = BCHCode(4, 2)
        assert output_ber(code, 1e-3) == pytest.approx(
            coded_ber_bounded_distance(1e-3, 15, 2)
        )


class TestInversion:
    def test_uncoded_inversion_is_identity(self):
        assert raw_ber_for_target_output_ber(UncodedScheme(64), 1e-9) == pytest.approx(1e-9)

    @pytest.mark.parametrize("target", [1e-6, 1e-9, 1e-11, 1e-12, 1e-15])
    @pytest.mark.parametrize("code_factory", [lambda: HammingCode(3), lambda: ShortenedHammingCode(64)])
    def test_round_trip_through_output_ber(self, target, code_factory):
        code = code_factory()
        raw = raw_ber_for_target_output_ber(code, target)
        assert output_ber(code, raw) == pytest.approx(target, rel=1e-6)

    def test_coded_links_tolerate_higher_raw_ber(self):
        target = 1e-11
        raw_h74 = raw_ber_for_target_output_ber(HammingCode(3), target)
        raw_h71 = raw_ber_for_target_output_ber(ShortenedHammingCode(64), target)
        assert raw_h74 > raw_h71 > target

    def test_small_p_approximation(self):
        # For small targets, p ~ sqrt(target / (n-1)).
        code = HammingCode(3)
        target = 1e-12
        raw = raw_ber_for_target_output_ber(code, target)
        assert raw == pytest.approx(np.sqrt(target / 6.0), rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            raw_ber_for_target_output_ber(HammingCode(3), 0.7)

    @pytest.mark.parametrize(
        "code_name,target",
        [
            # Too deep: the objective is lost in rounding, Brent does not converge.
            ("h(7,4)", 1e-30),
            ("h(71,64)", 1e-30),
            ("secded(72,64)", 1e-100),
            ("rep(3,1)", 1e-300),
            # Too shallow: no raw BER below 0.5 reaches the target, no bracket.
            ("rep(3,1)", 0.49),
            ("h(7,4)", 0.4999999),
        ],
    )
    def test_unsolvable_target_is_a_configuration_error(self, code_name, target):
        with pytest.raises(ConfigurationError, match="no raw BER meets target"):
            raw_ber_for_target_output_ber(get_code(code_name), target)


class TestBlockErrorProbability:
    def test_matches_binomial_tail_for_hamming(self):
        # P(> 1 error in 7 bits) computed directly.
        p = 0.05
        exact = 1.0 - (1.0 - p) ** 7 - 7 * p * (1.0 - p) ** 6
        assert block_error_probability(p, 7, 1) == pytest.approx(exact, rel=1e-12)

    def test_uncoded_is_at_least_one_error(self):
        p = 0.01
        assert block_error_probability(p, 64, 0) == pytest.approx(
            1.0 - (1.0 - p) ** 64, rel=1e-12
        )

    def test_zero_raw_ber_never_fails(self):
        assert block_error_probability(0.0, 71, 1) == 0.0

    def test_deep_tail_does_not_underflow_to_zero(self):
        # 1 - head-sum would cancel to 0.0 here; the survival-function path
        # keeps the tail's relative accuracy.
        tail = block_error_probability(1e-7, 72, 2)
        assert tail == pytest.approx(5.96e-17, rel=1e-2)
        assert block_error_probability(1e-12, 72, 1) > 0.0

    def test_more_correction_fails_less(self):
        p = 1e-2
        assert block_error_probability(p, 63, 2) < block_error_probability(p, 63, 1)

    def test_monte_carlo_agreement(self, rng):
        # The frame-error rate of the real decoder tracks the analytic tail
        # (exact for the perfect Hamming code).
        code = HammingCode(3)
        p = 0.04
        result = estimate_ber_monte_carlo(code, p, num_blocks=20000, rng=rng)
        predicted = block_error_probability(p, code.n, code.correctable_errors)
        assert result.block_errors / result.blocks_simulated == pytest.approx(predicted, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            block_error_probability(1.5, 7, 1)
        with pytest.raises(ConfigurationError):
            block_error_probability(0.1, 0, 1)
        with pytest.raises(ConfigurationError):
            block_error_probability(0.1, 7, -1)


class TestMonteCarloEstimation:
    def test_uncoded_estimate_matches_channel_ber(self, rng):
        result = estimate_ber_monte_carlo(UncodedScheme(64), 0.01, num_blocks=400, rng=rng)
        assert result.estimated_ber == pytest.approx(0.01, rel=0.3)

    def test_hamming_estimate_tracks_equation_two(self, rng):
        raw = 0.01
        result = estimate_ber_monte_carlo(HammingCode(3), raw, num_blocks=4000, rng=rng)
        expected = hamming_output_ber(raw, 7)
        assert result.estimated_ber == pytest.approx(expected, rel=0.5)

    def test_zero_raw_ber_gives_zero_errors(self, rng):
        result = estimate_ber_monte_carlo(HammingCode(3), 0.0, num_blocks=50, rng=rng)
        assert result.bit_errors == 0
        assert result.block_errors == 0

    def test_confidence_interval_contains_estimate(self, rng):
        result = estimate_ber_monte_carlo(UncodedScheme(16), 0.05, num_blocks=200, rng=rng)
        low, high = result.confidence_interval()
        assert low <= result.estimated_ber <= high

    def test_result_bookkeeping(self, rng):
        result = estimate_ber_monte_carlo(HammingCode(3), 0.02, num_blocks=100, rng=rng)
        assert result.blocks_simulated == 100
        assert result.bits_simulated == 400
        assert result.code_name == "H(7,4)"

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            estimate_ber_monte_carlo(HammingCode(3), 1.5, rng=rng)
        with pytest.raises(ConfigurationError):
            estimate_ber_monte_carlo(HammingCode(3), 0.1, num_blocks=0, rng=rng)
