"""Tests for the MWSR power budget and the operating-point solver."""

from __future__ import annotations

import pytest
from photonics.oracle import equation_four_snr

from repro.channel.ber import required_snr
from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.coding.uncoded import UncodedScheme
from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.link.design import OpticalLinkDesigner
from repro.link.power_budget import LinkPowerBudget
from repro.photonics.photodetector import Photodetector


class TestLinkPowerBudget:
    def test_total_loss_is_the_sum_of_the_breakdown(self):
        budget = LinkPowerBudget()
        breakdown = budget.breakdown()
        parts = sum(value for key, value in breakdown.items() if key != "total_db")
        assert breakdown["total_db"] == pytest.approx(parts)

    def test_waveguide_term_matches_paper_inputs(self):
        budget = LinkPowerBudget()
        assert budget.waveguide_loss_db == pytest.approx(0.274 * 6.0)

    def test_total_loss_is_in_the_calibrated_range(self):
        # DESIGN.md documents a worst-case signal path loss around 8.7 dB.
        budget = LinkPowerBudget()
        assert 8.0 < budget.signal_path_loss_db < 9.5

    def test_transmission_and_loss_are_consistent(self):
        budget = LinkPowerBudget()
        assert budget.signal_transmission == pytest.approx(
            10 ** (-budget.signal_path_loss_db / 10)
        )

    def test_more_onis_means_more_loss(self):
        small = LinkPowerBudget(config=DEFAULT_CONFIG.with_overrides(num_onis=4))
        large = LinkPowerBudget(config=DEFAULT_CONFIG.with_overrides(num_onis=24))
        assert large.signal_path_loss_db > small.signal_path_loss_db

    def test_received_power_round_trip(self):
        budget = LinkPowerBudget()
        received = budget.received_signal_power(500e-6)
        assert received / budget.signal_transmission == pytest.approx(500e-6)

    def test_crosstalk_ratio_is_positive_and_small(self):
        assert 0.0 < LinkPowerBudget().crosstalk_ratio < 0.1

    def test_crosstalk_scales_with_laser_power(self):
        budget = LinkPowerBudget()
        assert budget.received_crosstalk_power(400e-6) == pytest.approx(
            2 * budget.received_crosstalk_power(200e-6)
        )

    def test_negative_powers_rejected(self):
        budget = LinkPowerBudget()
        with pytest.raises(ConfigurationError):
            budget.received_signal_power(-1e-6)


class TestOpticalLinkDesigner:
    def test_design_point_satisfies_equation_four(self, designer):
        code = HammingCode(3)
        point = designer.design_point(code, 1e-11)
        achieved_snr = equation_four_snr(Photodetector(), point.signal_power_w, point.crosstalk_power_w)
        assert achieved_snr == pytest.approx(point.required_snr, rel=1e-9)

    def test_required_snr_matches_channel_module(self, designer):
        code = ShortenedHammingCode(64)
        point = designer.design_point(code, 1e-9)
        assert point.required_snr == pytest.approx(required_snr(code, 1e-9))

    def test_coded_links_need_less_laser_power(self, designer):
        target = 1e-11
        uncoded = designer.design_point(UncodedScheme(64), target)
        h71 = designer.design_point(ShortenedHammingCode(64), target)
        h74 = designer.design_point(HammingCode(3), target)
        assert h74.laser_electrical_power_w < h71.laser_electrical_power_w
        assert h71.laser_electrical_power_w < uncoded.laser_electrical_power_w

    def test_laser_power_reduction_is_roughly_half(self, designer):
        # The paper's headline: ~50% laser power reduction at BER 1e-11.
        target = 1e-11
        uncoded = designer.design_point(UncodedScheme(64), target)
        h71 = designer.design_point(ShortenedHammingCode(64), target)
        reduction = 1.0 - h71.laser_electrical_power_w / uncoded.laser_electrical_power_w
        assert 0.40 < reduction < 0.60

    def test_uncoded_1e12_is_infeasible_but_coded_is_not(self, designer):
        assert not designer.design_point(UncodedScheme(64), 1e-12).feasible
        assert designer.design_point(ShortenedHammingCode(64), 1e-12).feasible
        assert designer.design_point(HammingCode(3), 1e-12).feasible

    def test_lower_ber_targets_need_more_power(self, designer):
        code = HammingCode(3)
        powers = [
            designer.design_point(code, ber).laser_electrical_power_w
            for ber in (1e-6, 1e-9, 1e-12)
        ]
        assert powers[0] < powers[1] < powers[2]

    def test_sweep_matches_individual_points(self, designer):
        code = HammingCode(3)
        targets = [1e-6, 1e-9]
        sweep = designer.sweep_ber(code, targets)
        for point, target in zip(sweep, targets):
            individual = designer.design_point(code, target)
            assert point.laser_output_power_w == pytest.approx(individual.laser_output_power_w)

    def test_design_point_metadata(self, designer):
        point = designer.design_point(HammingCode(3), 1e-9)
        assert point.code_name == "H(7,4)"
        assert point.communication_time == pytest.approx(1.75)
        assert point.code_rate == pytest.approx(4 / 7)
        assert point.laser_power_mw == pytest.approx(point.laser_electrical_power_w * 1e3)
        assert point.laser_output_power_uw == pytest.approx(point.laser_output_power_w * 1e6)

    def test_invalid_target_ber_rejected(self, designer):
        with pytest.raises(ConfigurationError):
            designer.design_point(HammingCode(3), 0.0)
        with pytest.raises(ConfigurationError):
            designer.design_point(HammingCode(3), 0.6)
