"""Tests for the micro-ring and waveguide device models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.photonics.microring import MicroringResonator, MicroringState
from repro.photonics.waveguide import Waveguide
from repro.exceptions import ConfigurationError


class TestMicroringResonator:
    def test_defaults_match_the_paper(self):
        ring = MicroringResonator()
        assert ring.extinction_ratio_db == pytest.approx(6.9)
        assert ring.drive_power_w == pytest.approx(1.36e-3)

    def test_fwhm_from_quality_factor(self):
        ring = MicroringResonator(resonance_wavelength_m=1550e-9, quality_factor=9000)
        assert ring.fwhm_m == pytest.approx(1550e-9 / 9000)

    def test_on_off_transmission_ratio_is_the_extinction_ratio(self):
        ring = MicroringResonator()
        ratio = ring.off_state_transmission / ring.on_state_transmission
        assert 10 * np.log10(ratio) == pytest.approx(6.9, rel=1e-6)

    def test_modulation_extinction_at_signal_wavelength(self):
        ring = MicroringResonator()
        assert ring.modulation_extinction_db() == pytest.approx(6.9, abs=0.3)

    def test_off_state_through_loss_is_small(self):
        ring = MicroringResonator(through_loss_db=0.012)
        assert ring.off_state_transmission == pytest.approx(10 ** (-0.012 / 10))

    def test_through_spectrum_dips_at_resonance(self):
        ring = MicroringResonator()
        wavelengths = np.linspace(1549e-9, 1551e-9, 801)
        spectrum = ring.spectrum(wavelengths, MicroringState.OFF)
        dip_index = int(np.argmin(spectrum))
        assert wavelengths[dip_index] == pytest.approx(ring.resonance_wavelength_m, abs=3e-12)

    def test_on_state_resonance_is_blue_shifted(self):
        ring = MicroringResonator(on_state_shift_m=0.1e-9)
        wavelengths = np.linspace(1549e-9, 1551e-9, 2001)
        on_spectrum = ring.spectrum(wavelengths, MicroringState.ON)
        dip = wavelengths[int(np.argmin(on_spectrum))]
        assert dip < ring.resonance_wavelength_m

    def test_drop_transmission_peaks_at_resonance_and_rolls_off(self):
        ring = MicroringResonator(drop_loss_db=1.6)
        at_resonance = ring.drop_transmission(ring.resonance_wavelength_m)
        adjacent = ring.drop_transmission(ring.resonance_wavelength_m + 0.8e-9)
        assert at_resonance == pytest.approx(10 ** (-1.6 / 10))
        assert adjacent < 0.05 * at_resonance

    def test_far_detuned_through_transmission_approaches_floor(self):
        ring = MicroringResonator()
        far = ring.through_transmission(ring.resonance_wavelength_m + 50 * ring.fwhm_m)
        assert far == pytest.approx(ring.off_state_transmission, rel=1e-2)

    def test_detuned_copy_preserves_parameters(self):
        ring = MicroringResonator(quality_factor=12000, drop_loss_db=2.0)
        copy = ring.detuned_copy(1552e-9)
        assert copy.resonance_wavelength_m == pytest.approx(1552e-9)
        assert copy.quality_factor == ring.quality_factor
        assert copy.drop_loss_db == ring.drop_loss_db

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MicroringResonator(quality_factor=0)
        with pytest.raises(ConfigurationError):
            MicroringResonator(extinction_ratio_db=0)
        with pytest.raises(ConfigurationError):
            MicroringResonator(through_loss_db=-0.1)


class TestWaveguide:
    def test_paper_propagation_loss(self):
        waveguide = Waveguide(length_m=0.06, propagation_loss_db_per_cm=0.274)
        assert waveguide.total_loss_db == pytest.approx(1.644)

    def test_zero_length_waveguide_is_lossless(self):
        assert Waveguide(length_m=0.0).total_loss_db == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Waveguide(length_m=-1.0)
        with pytest.raises(ConfigurationError):
            Waveguide(propagation_loss_db_per_cm=-0.1)
