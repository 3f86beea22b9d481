"""Tests for channel power, energy-per-bit and interconnect aggregation."""

from __future__ import annotations

import pytest

from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.coding.uncoded import UncodedScheme
from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.power.channel import channel_power_breakdown
from repro.power.energy import communication_time, energy_metrics
from repro.power.interconnect import (
    interconnect_power_saving_w,
    interconnect_power_summary,
)


@pytest.fixture(scope="module")
def breakdowns(designer=None):
    from repro.link.design import OpticalLinkDesigner
    from repro.interfaces.synthesis import synthesize_interfaces

    designer = OpticalLinkDesigner()
    synthesis = synthesize_interfaces()
    codes = [UncodedScheme(64), ShortenedHammingCode(64), HammingCode(3)]
    return {
        code.name: channel_power_breakdown(
            code, 1e-11, designer=designer, synthesis=synthesis
        )
        for code in codes
    }


class TestChannelPowerBreakdown:
    def test_total_is_the_sum_of_contributions(self, breakdowns):
        for breakdown in breakdowns.values():
            assert breakdown.total_power_w == pytest.approx(
                breakdown.laser_power_w + breakdown.modulator_power_w + breakdown.interface_power_w
            )

    def test_modulator_power_matches_the_paper(self, breakdowns):
        for breakdown in breakdowns.values():
            assert breakdown.modulator_power_w == pytest.approx(1.36e-3)

    def test_laser_dominates_the_uncoded_channel(self, breakdowns):
        assert breakdowns["w/o ECC"].laser_share == pytest.approx(0.92, abs=0.02)

    def test_interface_power_is_negligible(self, breakdowns):
        for breakdown in breakdowns.values():
            assert breakdown.interface_power_w < 0.01 * breakdown.total_power_w

    def test_coded_channels_cut_total_power_roughly_in_half(self, breakdowns):
        baseline = breakdowns["w/o ECC"].total_power_w
        assert 1 - breakdowns["H(71,64)"].total_power_w / baseline == pytest.approx(0.48, abs=0.08)
        assert 1 - breakdowns["H(7,4)"].total_power_w / baseline == pytest.approx(0.52, abs=0.08)

    def test_per_waveguide_power_matches_paper_scale(self, breakdowns):
        per_waveguide_uncoded = breakdowns["w/o ECC"].total_power_mw * 16
        per_waveguide_h71 = breakdowns["H(71,64)"].total_power_mw * 16
        assert per_waveguide_uncoded == pytest.approx(251.0, rel=0.10)
        assert per_waveguide_h71 == pytest.approx(136.0, rel=0.10)

    def test_as_dict_round_trips_key_quantities(self, breakdowns):
        entry = breakdowns["H(7,4)"].as_dict()
        assert entry["code"] == "H(7,4)"
        assert entry["total_mw"] == pytest.approx(breakdowns["H(7,4)"].total_power_mw)

    def test_unknown_code_is_charged_the_uncoded_interface(self):
        # A code outside the Table I set is charged the uncoded path's
        # per-wavelength interface power.
        breakdown = channel_power_breakdown(HammingCode(4), 1e-9)
        uncoded = channel_power_breakdown(UncodedScheme(64), 1e-9)
        assert breakdown.interface_power_w == uncoded.interface_power_w
        assert breakdown.interface_power_w == pytest.approx(4.69075e-07, rel=1e-12)
        assert breakdown.total_power_w > 0


class TestEnergyMetrics:
    def test_communication_time_values(self):
        assert communication_time(UncodedScheme(64)) == pytest.approx(1.0)
        assert communication_time(HammingCode(3)) == pytest.approx(1.75)
        assert communication_time(ShortenedHammingCode(64)) == pytest.approx(71 / 64)

    def test_modulation_referenced_energy(self, breakdowns):
        metrics = energy_metrics(breakdowns["w/o ECC"])
        expected = breakdowns["w/o ECC"].total_power_w / 10e9
        assert metrics.energy_per_bit_modulation_j == pytest.approx(expected)

    def test_ip_referenced_energy_reproduces_paper_uncoded_value(self, breakdowns):
        metrics = energy_metrics(breakdowns["w/o ECC"])
        assert metrics.energy_per_bit_ip_pj == pytest.approx(3.92, rel=0.10)

    def test_h71_is_the_most_energy_efficient_scheme(self, breakdowns):
        energies = {
            name: energy_metrics(b).energy_per_bit_modulation_j for name, b in breakdowns.items()
        }
        assert energies["H(71,64)"] == min(energies.values())

    def test_as_dict_contains_both_accountings(self, breakdowns):
        entry = energy_metrics(breakdowns["H(71,64)"]).as_dict()
        assert "energy_per_bit_modulation_pj" in entry
        assert "energy_per_bit_ip_pj" in entry

    def test_communication_time_validation(self):
        class BogusCode:
            communication_time_overhead = 0.5

        with pytest.raises(ConfigurationError):
            communication_time(BogusCode())


class TestInterconnectAggregation:
    def test_per_waveguide_and_channel_scaling(self, breakdowns):
        summary = interconnect_power_summary(breakdowns["w/o ECC"])
        assert summary.per_waveguide_power_w == pytest.approx(
            summary.per_wavelength_power_w * 16
        )
        assert summary.per_channel_power_w == pytest.approx(
            summary.per_waveguide_power_w * 16
        )
        assert summary.total_power_w == pytest.approx(summary.per_channel_power_w * 12)
        # One MWSR channel per reader ONI.
        assert summary.num_channels == DEFAULT_CONFIG.num_onis == 12

    def test_coded_interconnect_draws_tens_of_watts(self, breakdowns):
        assert 15.0 < interconnect_power_summary(breakdowns["H(71,64)"]).total_power_w < 35.0

    def test_total_saving_matches_the_paper_scale(self, breakdowns):
        baseline = interconnect_power_summary(breakdowns["w/o ECC"])
        improved = interconnect_power_summary(breakdowns["H(71,64)"])
        saving = interconnect_power_saving_w(baseline, improved)
        assert saving == pytest.approx(22.0, rel=0.25)

    def test_saving_requires_identical_geometry(self, breakdowns):
        baseline = interconnect_power_summary(breakdowns["w/o ECC"])
        other_config = DEFAULT_CONFIG.with_overrides(num_onis=16)
        improved = interconnect_power_summary(breakdowns["H(71,64)"], config=other_config)
        with pytest.raises(ConfigurationError):
            interconnect_power_saving_w(baseline, improved)

    def test_as_dict(self, breakdowns):
        entry = interconnect_power_summary(breakdowns["H(7,4)"]).as_dict()
        assert entry["code"] == "H(7,4)"
        assert entry["total_w"] > 0
