"""Tests for the VCSEL laser and photodetector models."""

from __future__ import annotations

import numpy as np
import pytest
from photonics.oracle import equation_four_snr

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError, LaserPowerExceededError
from repro.photonics.laser import VCSELModel
from repro.photonics.photodetector import Photodetector


class TestVCSELModel:
    def test_from_config_uses_paper_parameters(self):
        laser = VCSELModel.from_config(DEFAULT_CONFIG)
        assert laser.max_output_power_w == pytest.approx(700e-6)
        assert laser.reference_activity == pytest.approx(0.25)

    def test_zero_optical_power_costs_nothing(self):
        laser = VCSELModel()
        assert laser.electrical_power(0.0) == 0.0

    def test_low_power_regime_is_nearly_linear(self):
        laser = VCSELModel()
        p1 = laser.electrical_power(50e-6)
        p2 = laser.electrical_power(100e-6)
        assert p2 / p1 == pytest.approx(2.0, rel=0.05)

    def test_efficiency_droops_with_output_power(self):
        laser = VCSELModel()
        assert laser.efficiency(600e-6) < laser.efficiency(100e-6)

    def test_high_power_regime_is_superlinear(self):
        laser = VCSELModel()
        low_slope = laser.electrical_power(100e-6) / 100e-6
        # Evaluate the local slope near the top of the range (no feasibility cut).
        high_slope = (
            laser.electrical_power(680e-6, enforce_limit=False)
            - laser.electrical_power(660e-6, enforce_limit=False)
        ) / 20e-6
        assert high_slope > 1.2 * low_slope

    def test_exceeding_the_rating_raises(self):
        laser = VCSELModel()
        with pytest.raises(LaserPowerExceededError):
            laser.electrical_power(750e-6)

    def test_enforce_limit_false_allows_extrapolation(self):
        laser = VCSELModel()
        assert laser.electrical_power(750e-6, enforce_limit=False) > 0

    def test_can_deliver(self):
        laser = VCSELModel()
        assert laser.can_deliver(650e-6)
        assert not laser.can_deliver(710e-6)

    def test_higher_activity_costs_more_power(self):
        laser = VCSELModel()
        cold = laser.electrical_power(300e-6, activity=0.25)
        hot = laser.electrical_power(300e-6, activity=1.0)
        assert hot > cold

    def test_activity_derating_normalised_at_reference(self):
        laser = VCSELModel()
        assert laser.activity_derating(0.25) == pytest.approx(1.0)

    def test_operating_point_is_consistent(self):
        laser = VCSELModel()
        efficiency = laser.efficiency(400e-6)
        assert laser.electrical_power(400e-6) == pytest.approx(400e-6 / efficiency)
        assert 0 < efficiency < 0.10

    def test_curve_matches_pointwise_evaluation(self):
        laser = VCSELModel()
        powers = np.array([0.0, 100e-6, 400e-6, 750e-6])
        curve = laser.electrical_power_curve(powers)
        for op, p in zip(powers, curve):
            assert p == pytest.approx(laser.electrical_power(op, enforce_limit=False))

    def test_uncoded_1e11_operating_point_lands_near_the_paper(self):
        # ~690 uW of optical power should cost roughly the paper's 14.3 mW.
        laser = VCSELModel.from_config(DEFAULT_CONFIG)
        power_mw = laser.electrical_power(690e-6) * 1e3
        assert 12.0 < power_mw < 18.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VCSELModel(base_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            VCSELModel(droop_power_w=0.0)
        with pytest.raises(ConfigurationError):
            VCSELModel(reference_activity=0.0)
        laser = VCSELModel()
        with pytest.raises(ConfigurationError):
            laser.efficiency(-1e-6)
        with pytest.raises(ConfigurationError):
            laser.activity_derating(1.5)


class TestPhotodetector:
    def test_from_config(self):
        detector = Photodetector.from_config(DEFAULT_CONFIG)
        assert detector.responsivity_a_per_w == pytest.approx(1.0)
        assert detector.dark_current_a == pytest.approx(4e-6)

    def test_equation_four(self):
        detector = Photodetector()
        assert equation_four_snr(detector, 100e-6, 4e-6) == pytest.approx((100e-6 - 4e-6) / 4e-6)

    def test_snr_is_zero_when_crosstalk_swamps_signal(self):
        detector = Photodetector()
        assert equation_four_snr(detector, 5e-6, 10e-6) == 0.0

    def test_required_signal_power_inverts_snr(self):
        detector = Photodetector()
        snr = 22.5
        signal = detector.required_signal_power(snr)
        assert equation_four_snr(detector, signal) == pytest.approx(snr)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Photodetector(responsivity_a_per_w=0.0)
        with pytest.raises(ConfigurationError):
            Photodetector(dark_current_a=0.0)
        with pytest.raises(ConfigurationError):
            Photodetector().required_signal_power(-1.0)
