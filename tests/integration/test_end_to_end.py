"""Integration tests crossing module boundaries.

These tests exercise the full chains the paper's argument rests on:
analytic design → physical simulation, manager → power accounting →
interconnect totals, and the headline numbers of the evaluation section.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CommunicationRequest,
    DEFAULT_CONFIG,
    HammingCode,
    NetworkSimulator,
    OpticalLinkDesigner,
    OpticalLinkManager,
    ShortenedHammingCode,
    UncodedScheme,
    paper_code_set,
)
from repro.coding.theory import output_ber
from repro.netsim import engine as netsim_engine
from repro.power import channel_power_breakdown, energy_metrics, interconnect_power_summary
from repro.simulation import OpticalLinkSimulator
from repro.traffic.generators import TrafficRequest


class TestAnalyticDesignVersusSimulation:
    """The operating point computed analytically must hold up in simulation."""

    @pytest.mark.parametrize("target_ber", [1e-3, 1e-4])
    def test_simulated_raw_ber_matches_the_design(self, target_ber, rng):
        designer = OpticalLinkDesigner()
        code = ShortenedHammingCode(64)
        point = designer.design_point(code, target_ber)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        result = simulator.run(num_blocks=3000)
        assert result.measured_raw_ber == pytest.approx(point.raw_channel_ber, rel=0.25)

    def test_simulated_post_decoding_ber_is_near_the_target(self, rng):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        target = 1e-3
        point = designer.design_point(code, target)
        simulator = OpticalLinkSimulator(code, point, rng=rng)
        result = simulator.run(num_blocks=20000)
        # The analytic post-decoding BER of the designed point equals the target.
        assert output_ber(code, point.raw_channel_ber) == pytest.approx(target, rel=1e-6)
        # The simulated value sits within a factor of ~2 of the target: the
        # paper's Eq. 2 slightly underestimates the residual BER because a
        # miscorrected double error adds a third erroneous bit; the
        # simulation includes that amplification.
        assert target * 0.5 < result.measured_post_decoding_ber < target * 2.5

    def test_coded_link_beats_uncoded_link_at_equal_laser_power(self, rng):
        # Fix the laser at the H(7,4) operating point and show the uncoded
        # link cannot reach the same quality: the coding gain is real.
        designer = OpticalLinkDesigner()
        target = 1e-4
        coded = HammingCode(3)
        coded_point = designer.design_point(coded, target)
        uncoded = UncodedScheme(64)
        uncoded_at_same_power = designer.design_point(uncoded, target)
        assert coded_point.laser_electrical_power_w < uncoded_at_same_power.laser_electrical_power_w
        # Simulate the uncoded link at the *coded* link's (lower) signal power.
        sim = OpticalLinkSimulator(uncoded, coded_point, config=DEFAULT_CONFIG, rng=rng)
        result = sim.run(num_blocks=300)
        assert result.measured_post_decoding_ber > target


class TestManagerToPowerChain:
    def test_managed_configuration_is_consistent_with_power_models(self):
        manager = OpticalLinkManager()
        request = CommunicationRequest(source=4, destination=0, target_ber=1e-11)
        configuration = manager.configure(request)
        breakdown = channel_power_breakdown(
            next(c for c in manager.codes if c.name == configuration.code_name), 1e-11
        )
        assert configuration.channel_power_w == pytest.approx(breakdown.total_power_w, rel=1e-6)

    def test_runtime_energy_matches_power_times_time(self, monkeypatch):
        # One uncontended transfer through the network simulator costs the
        # closed form of the configuration the manager picks: the payload
        # stretched by CT over NW wavelengths at Fmod, at the channel power
        # of every wavelength.
        configuration = OpticalLinkManager().configure(
            CommunicationRequest(source=1, destination=0, target_ber=1e-11, payload_bits=4096)
        )
        traffic = TrafficRequest(
            arrival_time_s=0.0, source=1, destination=0, payload_bits=4096, target_ber=1e-11
        )
        # No CRC: every packet is the payload alone.
        monkeypatch.setattr(netsim_engine, "PACKET_CRC", None)
        (record,) = NetworkSimulator(max_retries=0, packet_bits=64, seed=0).run(
            [traffic]
        ).records
        duration = (
            4096
            * configuration.communication_time
            / (DEFAULT_CONFIG.num_wavelengths * DEFAULT_CONFIG.modulation_rate_hz)
        )
        assert record.code_name == configuration.code_name
        assert record.latency_s == pytest.approx(duration, rel=1e-12)
        expected = configuration.channel_power_w * DEFAULT_CONFIG.num_wavelengths * duration
        assert record.energy_j == pytest.approx(expected, rel=1e-12)


class TestPaperHeadlineNumbers:
    """The quantitative claims of Section V, end to end."""

    @pytest.fixture(scope="class")
    def points(self):
        designer = OpticalLinkDesigner()
        return {code.name: designer.design_point(code, 1e-11) for code in paper_code_set()}

    def test_laser_power_values_track_figure5(self, points):
        assert points["w/o ECC"].laser_power_mw == pytest.approx(14.35, rel=0.20)
        assert points["H(71,64)"].laser_power_mw == pytest.approx(7.12, rel=0.20)
        assert points["H(7,4)"].laser_power_mw == pytest.approx(6.64, rel=0.20)

    def test_laser_power_reduction_is_nearly_half(self, points):
        reduction = 1 - points["H(7,4)"].laser_electrical_power_w / points["w/o ECC"].laser_electrical_power_w
        assert reduction > 0.45

    def test_channel_power_and_energy_per_bit(self):
        breakdown_uncoded = channel_power_breakdown(UncodedScheme(64), 1e-11)
        breakdown_h71 = channel_power_breakdown(ShortenedHammingCode(64), 1e-11)
        energy_uncoded = energy_metrics(breakdown_uncoded)
        energy_h71 = energy_metrics(breakdown_h71)
        # H(71,64) is the most energy-efficient scheme (paper Section V-C).
        assert energy_h71.energy_per_bit_modulation_j < energy_uncoded.energy_per_bit_modulation_j
        # Per-waveguide power drops from ~251 mW to ~136 mW.
        assert breakdown_uncoded.total_power_mw * 16 == pytest.approx(251, rel=0.10)
        assert breakdown_h71.total_power_mw * 16 == pytest.approx(136, rel=0.10)

    def test_interconnect_saving_reaches_tens_of_watts(self):
        uncoded = interconnect_power_summary(channel_power_breakdown(UncodedScheme(64), 1e-11))
        h71 = interconnect_power_summary(channel_power_breakdown(ShortenedHammingCode(64), 1e-11))
        assert uncoded.total_power_w - h71.total_power_w == pytest.approx(22.0, rel=0.25)


class TestCrossConfigurationRobustness:
    """The models must stay consistent away from the paper's exact setup."""

    @pytest.mark.parametrize("num_onis", [4, 8, 20])
    def test_scaling_the_oni_count(self, num_onis):
        config = DEFAULT_CONFIG.with_overrides(num_onis=num_onis)
        designer = OpticalLinkDesigner(config=config)
        point = designer.design_point(HammingCode(3), 1e-9)
        assert point.laser_output_power_w > 0
        assert point.required_snr > 0

    @pytest.mark.parametrize("num_wavelengths", [4, 8, 32])
    def test_scaling_the_wavelength_count(self, num_wavelengths):
        config = DEFAULT_CONFIG.with_overrides(
            num_wavelengths=num_wavelengths, num_waveguides_per_channel=4
        )
        breakdown = channel_power_breakdown(ShortenedHammingCode(64), 1e-9, config=config)
        assert breakdown.total_power_w > 0

    def test_longer_waveguides_need_more_laser_power(self):
        short = OpticalLinkDesigner(config=DEFAULT_CONFIG.with_overrides(waveguide_length_m=0.02))
        long = OpticalLinkDesigner(config=DEFAULT_CONFIG.with_overrides(waveguide_length_m=0.10))
        code = HammingCode(3)
        assert (
            long.design_point(code, 1e-9).laser_output_power_w
            > short.design_point(code, 1e-9).laser_output_power_w
        )

    def test_seeded_runs_are_reproducible(self):
        designer = OpticalLinkDesigner()
        code = HammingCode(3)
        point = designer.design_point(code, 1e-3)
        first = OpticalLinkSimulator(code, point, rng=np.random.default_rng(7)).run(200)
        second = OpticalLinkSimulator(code, point, rng=np.random.default_rng(7)).run(200)
        assert first.measured_raw_ber == second.measured_raw_ber
        assert first.measured_post_decoding_ber == second.measured_post_decoding_ber
