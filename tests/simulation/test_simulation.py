"""Tests for fault injection and the link simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.hamming import HammingCode
from repro.coding.packed import pack_bits, popcount_rows
from repro.coding.uncoded import UncodedScheme
from repro.exceptions import ConfigurationError
from repro.link.design import OpticalLinkDesigner
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel
from repro.simulation.linksim import OpticalLinkSimulator


class TestIndependentErrorModel:
    def test_zero_probability_is_transparent(self, rng):
        model = IndependentErrorModel(0.0, rng=rng)
        words = pack_bits(rng.integers(0, 2, size=(5, 100), dtype=np.uint8))
        assert np.array_equal(words ^ model.error_mask_packed(5, n=100), words)

    def test_error_rate_matches_probability(self, rng):
        model = IndependentErrorModel(0.05, rng=rng)
        flips = int(popcount_rows(model.error_mask_packed(1000, n=100)).sum())
        assert flips / 100_000 == pytest.approx(0.05, rel=0.1)

    def test_expected_ber(self):
        assert IndependentErrorModel(0.01).expected_ber == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IndependentErrorModel(1.5)
        with pytest.raises(ConfigurationError):
            IndependentErrorModel(0.1).error_mask_packed(-1, n=8)


class TestBurstErrorModel:
    def test_long_run_average_matches_expected_ber(self, rng):
        model = BurstErrorModel(
            good_error_probability=1e-4,
            bad_error_probability=0.3,
            good_to_bad_probability=0.01,
            bad_to_good_probability=0.2,
            rng=rng,
        )
        pattern = model.error_pattern(200_000)
        assert pattern.mean() == pytest.approx(model.expected_ber, rel=0.2)

    def test_errors_are_clustered(self, rng):
        model = BurstErrorModel(
            good_error_probability=0.0,
            bad_error_probability=0.5,
            good_to_bad_probability=0.002,
            bad_to_good_probability=0.1,
            rng=rng,
        )
        pattern = model.error_pattern(50_000)
        error_positions = np.nonzero(pattern)[0]
        assert error_positions.size > 10
        gaps = np.diff(error_positions)
        # Clustered errors: many consecutive errors are only a few bits apart.
        assert np.median(gaps) < 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstErrorModel(bad_error_probability=1.5)


class TestOpticalLinkSimulator:
    def test_measured_raw_ber_tracks_analytic(self, rng):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        point = designer.design_point(code, 1e-3)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        result = simulator.run(num_blocks=6000)
        assert result.measured_raw_ber == pytest.approx(point.raw_channel_ber, rel=0.2)

    def test_coding_improves_the_post_decoding_ber(self, rng):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        point = designer.design_point(code, 1e-3)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        result = simulator.run(num_blocks=6000)
        assert result.measured_post_decoding_ber < result.measured_raw_ber

    def test_uncoded_link_at_target_has_matching_raw_and_post_ber(self, rng):
        designer = OpticalLinkDesigner()
        code = UncodedScheme(64)
        point = designer.design_point(code, 1e-2)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        result = simulator.run(num_blocks=1500)
        assert result.measured_post_decoding_ber == pytest.approx(result.measured_raw_ber)
        assert result.measured_raw_ber == pytest.approx(1e-2, rel=0.3)

    def test_result_bookkeeping(self, rng):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        point = designer.design_point(code, 1e-4)
        result = OpticalLinkSimulator(code, point, rng=rng).run(num_blocks=100)
        assert result.blocks_simulated == 100
        assert 0 <= result.residual_bit_errors <= result.blocks_simulated * code.k

    def test_validation(self, rng):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        point = designer.design_point(code, 1e-4)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        with pytest.raises(ConfigurationError):
            simulator.run(num_blocks=0)

