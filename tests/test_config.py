"""Tests for the paper configuration object."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import DEFAULT_CONFIG, PaperConfig
from repro.exceptions import ConfigurationError


class TestDefaultsMatchThePaper:
    def test_geometry(self):
        assert DEFAULT_CONFIG.num_onis == 12
        assert DEFAULT_CONFIG.num_wavelengths == 16
        assert DEFAULT_CONFIG.num_waveguides_per_channel == 16

    def test_waveguide(self):
        assert DEFAULT_CONFIG.waveguide_length_m == pytest.approx(0.06)
        assert DEFAULT_CONFIG.waveguide_loss_db_per_cm == pytest.approx(0.274)

    def test_modulator(self):
        assert DEFAULT_CONFIG.extinction_ratio_db == pytest.approx(6.9)
        assert DEFAULT_CONFIG.modulator_power_w == pytest.approx(1.36e-3)

    def test_photodetector(self):
        assert DEFAULT_CONFIG.photodetector_responsivity_a_per_w == pytest.approx(1.0)
        assert DEFAULT_CONFIG.dark_current_a == pytest.approx(4e-6)

    def test_laser_rating(self):
        assert DEFAULT_CONFIG.laser_max_output_power_w == pytest.approx(700e-6)
        assert DEFAULT_CONFIG.chip_activity == pytest.approx(0.25)

    def test_interface_clocks(self):
        assert DEFAULT_CONFIG.ip_bus_width_bits == 64
        assert DEFAULT_CONFIG.ip_clock_hz == pytest.approx(1e9)
        assert DEFAULT_CONFIG.modulation_rate_hz == pytest.approx(10e9)


class TestDerivedQuantities:
    def test_writers_per_channel(self):
        assert DEFAULT_CONFIG.num_intermediate_writers == 10

    def test_bandwidths(self):
        assert DEFAULT_CONFIG.ip_bandwidth_bits_per_s == pytest.approx(64e9)

    def test_wavelength_grid_size_and_centre(self):
        grid = DEFAULT_CONFIG.wavelengths_m
        assert len(grid) == DEFAULT_CONFIG.num_wavelengths
        centre = 0.5 * (grid[0] + grid[-1])
        assert centre == pytest.approx(DEFAULT_CONFIG.center_wavelength_m)

    def test_wavelength_grid_spacing(self):
        grid = DEFAULT_CONFIG.wavelengths_m
        spacings = {round(b - a, 15) for a, b in zip(grid, grid[1:])}
        assert len(spacings) == 1
        assert spacings.pop() == pytest.approx(DEFAULT_CONFIG.channel_spacing_m)


class TestValidationAndOverrides:
    def test_with_overrides_returns_new_instance(self):
        modified = DEFAULT_CONFIG.with_overrides(num_onis=16)
        assert modified.num_onis == 16
        assert DEFAULT_CONFIG.num_onis == 12

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.num_onis = 20  # type: ignore[misc]

    def test_rejects_too_few_onis(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(num_onis=1)

    def test_rejects_zero_wavelengths(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(num_wavelengths=0)

    def test_rejects_bad_activity(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(chip_activity=0.0)
        with pytest.raises(ConfigurationError):
            PaperConfig(chip_activity=1.5)

    def test_rejects_non_positive_extinction_ratio(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(extinction_ratio_db=0.0)

    def test_rejects_non_positive_laser_power(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(laser_max_output_power_w=0.0)

    def test_rejects_non_positive_bus_width(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(ip_bus_width_bits=0)


_NAN = st.just(float("nan"))
#: NaN or an out-of-range value for each field ``__post_init__`` validates.
_INVALID = {
    "num_onis": _NAN | st.integers(max_value=1) | st.floats(max_value=1.999),
    "num_wavelengths": _NAN | st.integers(max_value=0) | st.floats(max_value=0.999),
    "chip_activity": _NAN
    | st.floats(max_value=0.0)
    | st.floats(min_value=1.0, exclude_min=True),
    "extinction_ratio_db": _NAN | st.floats(max_value=0.0),
    "laser_max_output_power_w": _NAN | st.floats(max_value=0.0),
    "ip_bus_width_bits": _NAN | st.integers(max_value=0) | st.floats(max_value=0.0),
}


class TestValidationProperties:
    @pytest.mark.parametrize("field", sorted(_INVALID))
    @given(data=st.data())
    def test_nan_or_out_of_range_is_a_configuration_error(self, field, data):
        value = data.draw(_INVALID[field], label=field)
        # Any other exception type escapes pytest.raises and fails the test.
        with pytest.raises(ConfigurationError):
            PaperConfig(**{field: value})
