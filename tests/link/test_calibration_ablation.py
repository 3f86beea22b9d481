"""Ablations of the calibrated design choices.

The reproduction substitutes three substrates the paper does not publish in
reusable form: the MWSR transmission/crosstalk model, the VCSEL thermal
model and the synthesis flow.  These sweeps vary the corresponding free
parameters and check that the paper's headline conclusion — coding cuts the
laser power roughly in half — is robust to the calibration, not an
artefact of one parameter choice.
"""

from __future__ import annotations

import pytest

from repro.coding.hamming import ShortenedHammingCode
from repro.coding.uncoded import UncodedScheme
from repro.config import DEFAULT_CONFIG
from repro.link.design import OpticalLinkDesigner


def _reduction_at(config, target_ber=1e-11) -> float:
    """Laser-power reduction of H(71,64) vs uncoded for one configuration."""
    designer = OpticalLinkDesigner(config=config)
    uncoded = designer.design_point(UncodedScheme(config.ip_bus_width_bits), target_ber)
    coded = designer.design_point(ShortenedHammingCode(config.ip_bus_width_bits), target_ber)
    return 1.0 - coded.laser_electrical_power_w / uncoded.laser_electrical_power_w


@pytest.mark.parametrize("length_m", [0.02, 0.06, 0.10])
def test_reduction_holds_across_waveguide_lengths(length_m):
    """The ~50% reduction holds across 2-10 cm worst-case waveguides."""
    config = DEFAULT_CONFIG.with_overrides(waveguide_length_m=length_m)
    assert 0.35 < _reduction_at(config) < 0.70


@pytest.mark.parametrize("extinction_db", [4.0, 6.9, 12.0])
def test_reduction_holds_across_extinction_ratios(extinction_db):
    """The reduction holds for 4-12 dB modulator extinction ratios."""
    config = DEFAULT_CONFIG.with_overrides(extinction_ratio_db=extinction_db)
    assert 0.35 < _reduction_at(config) < 0.70


@pytest.mark.parametrize("efficiency", [0.04, 0.065, 0.10])
def test_reduction_holds_across_laser_efficiencies(efficiency):
    """The reduction holds whether the VCSEL is 4% or 10% efficient.

    The *absolute* laser power scales with the efficiency, but the relative
    coding gain does not: it comes from the SNR relaxation, which is why the
    paper's conclusion survives the laser-model substitution.  The target is
    relaxed to 1e-9 to keep the weak laser's operating points within its
    700 uW rating.
    """
    config = DEFAULT_CONFIG.with_overrides(laser_base_efficiency=efficiency)
    assert 0.30 < _reduction_at(config, target_ber=1e-9) < 0.70


@pytest.mark.parametrize("num_onis, num_wavelengths", [(4, 8), (12, 16), (24, 32)])
def test_reduction_holds_across_channel_populations(num_onis, num_wavelengths):
    """More ONIs / wavelengths increase losses and crosstalk but not the trend."""
    config = DEFAULT_CONFIG.with_overrides(
        num_onis=num_onis, num_wavelengths=num_wavelengths
    )
    assert 0.30 < _reduction_at(config, target_ber=1e-9) < 0.70
