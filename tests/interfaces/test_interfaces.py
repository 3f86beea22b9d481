"""Tests for the electrical interface models (technology library, blocks, assemblies)."""

from __future__ import annotations

import pytest

from repro.coding.hamming import HammingCode, ShortenedHammingCode
from repro.exceptions import ConfigurationError
from repro.interfaces.blocks import (
    InterfaceAssembly,
    deserializer_block,
    hamming_codec_block,
    mux_block,
    serializer_block,
)
from repro.interfaces.synthesis import PAPER_MODES, synthesize_interfaces
from repro.interfaces.techlib import FDSOI_28NM, BlockCharacterisation, TechnologyLibrary


class TestTechnologyLibrary:
    def test_table_one_blocks_are_present(self):
        for name in (
            "tx/mux_1bit_3to1",
            "tx/h74_coders_x16",
            "tx/h71_64_coder",
            "rx/h74_decoders_x16",
            "rx/deser_64bit_uncoded",
        ):
            assert name in FDSOI_28NM.block_names()

    def test_table_one_values_are_stored_verbatim(self):
        coder = FDSOI_28NM.block("tx/h74_coders_x16")
        assert coder.area_um2 == pytest.approx(551.0)
        assert coder.critical_path_ps == pytest.approx(210.0)
        assert coder.dynamic_power_uw == pytest.approx(3.13)

    def test_total_power_adds_static_in_nanowatts(self):
        block = BlockCharacterisation("x", 10.0, 50.0, 100.0, 1.0)
        assert block.total_power_uw == pytest.approx(1.1)
        assert block.total_power_w == pytest.approx(1.1e-6)

    def test_unknown_block_raises(self):
        with pytest.raises(ConfigurationError):
            FDSOI_28NM.block("tx/nonexistent")

    def test_unknown_calibration_raises(self):
        with pytest.raises(ConfigurationError):
            FDSOI_28NM.calibration("made-up-constant")

    def test_duplicate_block_names_rejected(self):
        block = BlockCharacterisation("dup", 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            TechnologyLibrary("x", blocks=[block, block], calibration={})

    def test_negative_characterisation_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCharacterisation("bad", -1.0, 1.0, 1.0, 1.0)


class TestParametricBlocks:
    def test_h74_coder_bank_estimate_close_to_table_one(self):
        estimate = hamming_codec_block(HammingCode(3), role="encoder", num_instances=16)
        assert estimate.area_um2 == pytest.approx(551.0, rel=0.25)

    def test_h7164_coder_estimate_close_to_table_one(self):
        estimate = hamming_codec_block(ShortenedHammingCode(64), role="encoder", num_instances=1)
        assert estimate.area_um2 == pytest.approx(490.0, rel=0.25)

    def test_h74_decoder_bank_estimate_close_to_table_one(self):
        estimate = hamming_codec_block(HammingCode(3), role="decoder", num_instances=16)
        assert estimate.area_um2 == pytest.approx(783.0, rel=0.25)

    def test_serializer_estimates_scale_linearly_with_depth(self):
        small = serializer_block(64, modulation_rate_hz=10e9)
        large = serializer_block(112, modulation_rate_hz=10e9)
        assert large.area_um2 / small.area_um2 == pytest.approx(112 / 64, rel=1e-6)
        assert small.area_um2 == pytest.approx(249.0, rel=0.1)

    def test_deserializer_estimate_close_to_table_one(self):
        estimate = deserializer_block(112, modulation_rate_hz=10e9)
        assert estimate.area_um2 == pytest.approx(365.0, rel=0.1)
        assert estimate.dynamic_power_uw == pytest.approx(4.75, rel=0.15)

    def test_dynamic_power_scales_with_frequency(self):
        slow = serializer_block(64, modulation_rate_hz=5e9)
        fast = serializer_block(64, modulation_rate_hz=10e9)
        assert fast.dynamic_power_uw == pytest.approx(2 * slow.dynamic_power_uw)

    def test_decoder_is_larger_and_slower_than_encoder(self):
        encoder = hamming_codec_block(HammingCode(3), role="encoder", num_instances=16)
        decoder = hamming_codec_block(HammingCode(3), role="decoder", num_instances=16)
        assert decoder.area_um2 > encoder.area_um2
        assert decoder.critical_path_ps > encoder.critical_path_ps

    def test_mux_scales_with_width_and_inputs(self):
        narrow = mux_block(1, 3)
        wide = mux_block(64, 3)
        more_inputs = mux_block(64, 5)
        assert wide.area_um2 == pytest.approx(64 * narrow.area_um2, rel=1e-6)
        assert more_inputs.area_um2 > wide.area_um2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hamming_codec_block(HammingCode(3), role="codec", num_instances=16)
        with pytest.raises(ConfigurationError):
            serializer_block(0, modulation_rate_hz=10e9)
        with pytest.raises(ConfigurationError):
            mux_block(0)


class TestInterfaceAssemblies:
    def test_paper_transmitter_area_matches_table_one(self):
        transmitter = InterfaceAssembly.paper_default("transmitter")
        assert transmitter.total_area_um2 == pytest.approx(2013.0)

    def test_paper_receiver_area_matches_table_one(self):
        receiver = InterfaceAssembly.paper_default("receiver")
        assert receiver.total_area_um2 == pytest.approx(3050.0)

    @pytest.mark.parametrize(
        "mode, expected", [("H(7,4)", 9.57), ("H(71,64)", 5.98), ("w/o ECC", 3.16)]
    )
    def test_transmitter_dynamic_power_per_mode(self, mode, expected):
        transmitter = InterfaceAssembly.paper_default("transmitter")
        assert transmitter.dynamic_power_uw(mode) == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize(
        "mode, expected", [("H(7,4)", 10.10), ("H(71,64)", 7.20), ("w/o ECC", 4.30)]
    )
    def test_receiver_dynamic_power_per_mode(self, mode, expected):
        receiver = InterfaceAssembly.paper_default("receiver")
        assert receiver.dynamic_power_uw(mode) == pytest.approx(expected, abs=0.05)

    def test_both_sides_offer_the_same_modes(self):
        transmit_modes = InterfaceAssembly.paper_default("transmitter").modes()
        assert set(transmit_modes) == set(InterfaceAssembly.paper_default("receiver").modes())
        assert {"w/o ECC", "H(7,4)", "H(71,64)"} <= set(transmit_modes)

    def test_coded_modes_cost_more_than_uncoded(self):
        transmitter = InterfaceAssembly.paper_default("transmitter")
        assert transmitter.dynamic_power_uw("H(7,4)") > transmitter.dynamic_power_uw("w/o ECC")

    def test_unknown_mode_raises(self):
        transmitter = InterfaceAssembly.paper_default("transmitter")
        with pytest.raises(ConfigurationError):
            transmitter.dynamic_power_uw("H(15,11)")

    def test_critical_path_is_positive_slack_at_1ghz(self):
        transmitter = InterfaceAssembly.paper_default("transmitter")
        receiver = InterfaceAssembly.paper_default("receiver")
        for mode in PAPER_MODES:
            assert transmitter.critical_path_ps(mode) < 1000.0
            assert receiver.critical_path_ps(mode) < 1000.0

    def test_parametric_interface_exposes_custom_modes(self):
        codes = [HammingCode(4)]
        transmitter = InterfaceAssembly.from_codes("transmitter", codes, ip_bus_width_bits=44)
        assert "H(15,11)" in transmitter.modes()
        assert transmitter.dynamic_power_uw("H(15,11)") > transmitter.dynamic_power_uw("w/o ECC")

    def test_parametric_interface_rejects_mismatched_bus(self):
        with pytest.raises(ConfigurationError):
            InterfaceAssembly.from_codes("transmitter", [HammingCode(4)], ip_bus_width_bits=64)

    def test_parametric_sides_pick_their_own_parts(self):
        codes = [HammingCode(3)]
        transmitter = InterfaceAssembly.from_codes("transmitter", codes)
        receiver = InterfaceAssembly.from_codes("receiver", codes)
        assert list(transmitter.as_table()) == [
            "mux:1b_2to1", "ser:64b", "encoder:H(7,4)x16", "ser:112b"
        ]
        assert list(receiver.as_table()) == [
            "mux:64b_2to1", "deser:64b", "decoder:H(7,4)x16", "deser:112b"
        ]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: InterfaceAssembly.paper_default("tx"),
            lambda: InterfaceAssembly.from_codes("both", [HammingCode(3)]),
        ],
        ids=["paper_default", "from_codes"],
    )
    def test_unknown_side_rejected(self, build):
        with pytest.raises(ConfigurationError, match="unknown interface side"):
            build()


class TestSynthesisReport:
    def test_mode_totals_match_table_one(self, synthesis_report):
        assert synthesis_report.mode_totals("transmitter", "H(7,4)").total_power_uw == pytest.approx(
            9.59, abs=0.05
        )
        assert synthesis_report.mode_totals("receiver", "w/o ECC").total_power_uw == pytest.approx(
            4.32, abs=0.05
        )

    def test_interface_power_combines_both_sides(self, synthesis_report):
        combined = synthesis_report.interface_power_w("H(71,64)")
        tx = synthesis_report.mode_totals("transmitter", "H(71,64)").total_power_uw
        rx = synthesis_report.mode_totals("receiver", "H(71,64)").total_power_uw
        assert combined == pytest.approx((tx + rx) * 1e-6)

    def test_slack_is_positive_for_every_mode(self, synthesis_report):
        # The paper reports positive slack for every block; the aggregated
        # path runs at the IP clock, so its critical path must fit the IP
        # clock period.
        ip_period_ps = 1e12 / synthesis_report.config.ip_clock_hz
        for side in ("transmitter", "receiver"):
            for mode in PAPER_MODES:
                assert synthesis_report.mode_totals(side, mode).critical_path_ps < ip_period_ps

    def test_unknown_mode_raises_keyerror(self, synthesis_report):
        with pytest.raises(KeyError):
            synthesis_report.mode_totals("transmitter", "turbo")

    def test_rows_and_text_rendering(self, synthesis_report):
        rows = synthesis_report.to_rows()
        assert len(rows) == 12 + 6  # 12 blocks + 6 per-mode totals
        text = synthesis_report.render_text()
        assert "tx/h74_coders_x16" in text
        assert "Total, H(7,4) com." in text

    def test_parametric_report_is_in_the_same_ballpark(self):
        parametric = synthesize_interfaces(parametric=True)
        reference = synthesize_interfaces(parametric=False)
        measured = parametric.mode_totals("transmitter", "H(7,4)").total_power_uw
        expected = reference.mode_totals("transmitter", "H(7,4)").total_power_uw
        assert measured == pytest.approx(expected, rel=0.6)
        assert parametric.receiver_area_um2 > parametric.transmitter_area_um2 > 0
