"""Tests for the WDM grid, MMI coupler and crosstalk models."""

from __future__ import annotations

import numpy as np
import pytest
from photonics.oracle import crosstalk_ratios

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.photonics.coupler import MMICoupler
from repro.photonics.crosstalk import CrosstalkModel, _worst_case_ratio
from repro.photonics.microring import MicroringResonator
from repro.photonics.wdm import WDMGrid


class TestWDMGrid:
    def test_from_config(self):
        grid = WDMGrid.from_config(DEFAULT_CONFIG)
        assert grid.num_channels == 16
        assert grid.channel_spacing_m == pytest.approx(0.8e-9)

    def test_grid_is_centred(self):
        grid = WDMGrid(num_channels=5, center_wavelength_m=1550e-9, channel_spacing_m=1e-9)
        wavelengths = grid.wavelengths_m
        assert wavelengths[2] == pytest.approx(1550e-9)
        assert len(wavelengths) == 5

    def test_uniform_spacing(self):
        grid = WDMGrid(num_channels=8)
        diffs = np.diff(grid.wavelengths_m)
        assert np.allclose(diffs, grid.channel_spacing_m)

    @pytest.mark.parametrize("num_channels", [16, 37])
    def test_wavelength_lookup_matches_the_grid_tuple(self, num_channels):
        grid = WDMGrid(num_channels=num_channels, channel_spacing_m=0.53e-9)
        assert [grid.wavelength(i) for i in range(num_channels)] == list(grid.wavelengths_m)

    def test_index_validation(self):
        grid = WDMGrid(num_channels=4)
        with pytest.raises(ConfigurationError):
            grid.wavelength(4)
        with pytest.raises(ConfigurationError):
            grid.wavelength(-1)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            WDMGrid(num_channels=0)
        with pytest.raises(ConfigurationError):
            WDMGrid(channel_spacing_m=0.0)


class TestMMICoupler:
    def test_from_config(self):
        coupler = MMICoupler.from_config(DEFAULT_CONFIG)
        assert coupler.insertion_loss_db == pytest.approx(1.2)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            MMICoupler(insertion_loss_db=-1.0)


class TestCrosstalkModel:
    def test_from_config_worst_case_is_a_few_percent(self):
        model = CrosstalkModel.from_config(DEFAULT_CONFIG)
        ratio = model.worst_case_ratio()
        assert 0.005 < ratio < 0.10

    @pytest.mark.parametrize("num_channels", [1, 8, 16])
    def test_memoized_worst_case_is_the_reference_maximum(self, num_channels):
        model = CrosstalkModel(grid=WDMGrid(num_channels=num_channels), drop_ring=MicroringResonator())
        assert model.worst_case_ratio() == max(crosstalk_ratios(model))

    def test_equal_models_share_one_solve(self):
        _worst_case_ratio.cache_clear()
        first = CrosstalkModel.from_config(DEFAULT_CONFIG)
        second = CrosstalkModel.from_config(DEFAULT_CONFIG)
        assert first is not second
        assert first.worst_case_ratio() == second.worst_case_ratio()
        assert _worst_case_ratio.cache_info().misses == 1

    def test_central_channels_suffer_the_most(self):
        model = CrosstalkModel.from_config(DEFAULT_CONFIG)
        ratios = crosstalk_ratios(model)
        assert ratios[len(ratios) // 2] > ratios[0]
        assert ratios[len(ratios) // 2] > ratios[-1]

    def test_single_channel_has_no_crosstalk(self):
        grid = WDMGrid(num_channels=1)
        model = CrosstalkModel(grid=grid, drop_ring=MicroringResonator())
        assert model.crosstalk_ratio(0) == 0.0

    def test_wider_spacing_reduces_crosstalk(self):
        ring = MicroringResonator()
        narrow = CrosstalkModel(grid=WDMGrid(num_channels=8, channel_spacing_m=0.4e-9), drop_ring=ring)
        wide = CrosstalkModel(grid=WDMGrid(num_channels=8, channel_spacing_m=1.6e-9), drop_ring=ring)
        assert wide.worst_case_ratio() < narrow.worst_case_ratio()

    def test_higher_q_reduces_crosstalk(self):
        grid = WDMGrid(num_channels=8)
        low_q = CrosstalkModel(grid=grid, drop_ring=MicroringResonator(quality_factor=4000))
        high_q = CrosstalkModel(grid=grid, drop_ring=MicroringResonator(quality_factor=20000))
        assert high_q.worst_case_ratio() < low_q.worst_case_ratio()

    def test_crosstalk_power_scales_with_received_power(self):
        model = CrosstalkModel.from_config(DEFAULT_CONFIG)
        low = model.crosstalk_power_w(0, 10e-6)
        high = model.crosstalk_power_w(0, 20e-6)
        assert high == pytest.approx(2 * low)

    def test_negative_power_rejected(self):
        model = CrosstalkModel.from_config(DEFAULT_CONFIG)
        with pytest.raises(ConfigurationError):
            model.crosstalk_power_w(0, -1e-6)
