"""Tests for topology, MWSR channels and arbitration."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ArbitrationError, ConfigurationError
from repro.interconnect.arbitration import TOKEN_HOP_TIME_S, TokenArbiter
from repro.interconnect.mwsr import MWSRChannel
from repro.interconnect.topology import RingTopology


class TestRingTopology:
    def test_from_config_worst_case_distance_matches_the_paper(self):
        # The farthest writer is one hop short of the full loop.
        topology = RingTopology.from_config(DEFAULT_CONFIG)
        worst_case = topology.loop_length_m * (topology.num_onis - 1) / topology.num_onis
        assert worst_case == pytest.approx(0.06, rel=1e-6)


class TestMWSRChannel:
    def test_writers_exclude_the_reader(self):
        channel = MWSRChannel(reader=0)
        assert 0 not in channel.writers
        assert len(channel.writers) == 11


class TestTokenArbiter:
    def test_single_writer_gets_immediate_grants(self):
        arbiter = TokenArbiter(writers=[1])
        assert arbiter.request(1, now_s=0.0, duration_s=1e-6) == pytest.approx(0.0)
        assert arbiter.request(1, now_s=0.0, duration_s=1e-6) == pytest.approx(1e-6)

    def test_transfers_serialise_on_the_channel(self):
        arbiter = TokenArbiter(writers=[1, 2, 3])
        first = arbiter.request(1, 0.0, 5e-9)
        second = arbiter.request(2, 0.0, 5e-9)
        assert first == pytest.approx(0.0)
        assert second >= first + 5e-9

    def test_token_hops_add_latency(self):
        arbiter = TokenArbiter(writers=[1, 2, 3])
        arbiter.request(1, 0.0, 0.0)
        start = arbiter.request(3, 0.0, 0.0)
        assert start == pytest.approx(2 * TOKEN_HOP_TIME_S)

    def test_unknown_writer_rejected(self):
        arbiter = TokenArbiter(writers=[1, 2])
        with pytest.raises(ArbitrationError):
            arbiter.request(9, 0.0, 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenArbiter(writers=[])
        with pytest.raises(ConfigurationError):
            TokenArbiter(writers=[1, 1])



class TestInterconnectAssembly:
    """The ring as the power model counts it: one MWSR channel per reader ONI."""

    def test_one_channel_per_reader(self):
        from repro.coding.uncoded import UncodedScheme
        from repro.power.channel import channel_power_breakdown
        from repro.power.interconnect import interconnect_power_summary

        channels = [MWSRChannel(reader=reader) for reader in range(DEFAULT_CONFIG.num_onis)]
        for channel in channels:
            assert sorted(channel.writers + [channel.reader]) == list(range(12))
        summary = interconnect_power_summary(channel_power_breakdown(UncodedScheme(64), 1e-11))
        assert summary.num_channels == len(channels) == 12

    def test_unknown_reader_rejected(self):
        with pytest.raises(ConfigurationError):
            MWSRChannel(reader=42)
        with pytest.raises(ConfigurationError):
            MWSRChannel(reader=-1)

    def test_oni_interface_area_is_the_sum_of_both_interfaces(self):
        from repro.interfaces.blocks import InterfaceAssembly

        transmitter = InterfaceAssembly.paper_default("transmitter")
        receiver = InterfaceAssembly.paper_default("receiver")
        area = transmitter.total_area_um2 + receiver.total_area_um2
        assert area == pytest.approx(2013.0 + 3050.0)
        assert DEFAULT_CONFIG.num_onis * area == pytest.approx(12 * (2013.0 + 3050.0))

    def test_both_interfaces_offer_the_same_modes(self):
        from repro.interfaces.blocks import InterfaceAssembly

        transmit_modes = InterfaceAssembly.paper_default("transmitter").modes()
        assert set(transmit_modes) == set(InterfaceAssembly.paper_default("receiver").modes())
        assert {"w/o ECC", "H(7,4)", "H(71,64)"} <= set(transmit_modes)
