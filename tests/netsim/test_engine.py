"""Correctness anchors of the discrete-event network simulator.

The three anchors the issue pins down:

* at zero contention the per-transfer latency/energy matches the closed
  form ``payload · CT / (NW · Fmod)`` and ``P_channel · NW · duration`` of
  the configuration the link manager picks, to float tolerance;
* under saturation the token arbiter serves every writer fairly;
* the probabilistic and bit-exact fault modes agree on the delivered
  packet/bit error rates within Monte-Carlo error under a fixed seed.
"""

from __future__ import annotations

import gc
import math
import os
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from oracle import BACKENDS, FixedCodePolicy, network_simulator, run_reference

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.network import request_rate_for_load
from repro.manager.manager import CommunicationRequest, OpticalLinkManager
from repro.manager.policies import (
    DeadlineConstrainedPolicy,
    DegradationLadder,
    MinimumEnergyPolicy,
    margin_levels,
)
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import (
    NetworkSimulator,
    make_drift_model,
    make_fault_model,
    packets_for_payload,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.simulation.faults import IndependentErrorModel
from repro.traffic.generators import (
    HotspotTrafficGenerator,
    TrafficRequest,
    UniformTrafficGenerator,
)


def _single_stream_requests(count: int, *, payload_bits: int = 512, spacing_s: float = 1e-3):
    """Back-to-back requests of one writer to one reader, far apart in time."""
    return [
        TrafficRequest(
            arrival_time_s=(index + 1) * spacing_s,
            source=1,
            destination=0,
            payload_bits=payload_bits,
            target_ber=1e-9,
        )
        for index in range(count)
    ]


class TestZeroContentionParity:
    """Anchor (a): one writer, one stream — netsim equals the closed form."""

    @pytest.fixture(scope="class")
    def pair(self):
        requests = _single_stream_requests(20)
        simulator = network_simulator(crc=None, max_retries=0, packet_bits=64, seed=0)
        result = simulator.run(requests)
        manager = OpticalLinkManager()
        channel_rate = DEFAULT_CONFIG.num_wavelengths * DEFAULT_CONFIG.modulation_rate_hz
        expected = []
        for request in requests:
            configuration = manager.configure(
                CommunicationRequest(
                    source=request.source,
                    destination=request.destination,
                    target_ber=request.target_ber,
                    payload_bits=request.payload_bits,
                )
            )
            duration = request.payload_bits * configuration.communication_time / channel_rate
            energy = configuration.channel_power_w * DEFAULT_CONFIG.num_wavelengths * duration
            expected.append((configuration.code_name, duration, energy))
        return result.records, expected

    def test_same_configuration_selected(self, pair):
        records, expected = pair
        assert len(records) == len(expected)
        for record, (code_name, _, _) in zip(records, expected):
            assert record.code_name == code_name

    def test_serialization_time_matches_to_float_tolerance(self, pair):
        records, expected = pair
        for record, (_, duration, _) in zip(records, expected):
            assert record.completion_time_s - record.first_start_time_s == pytest.approx(
                duration, rel=1e-12
            )

    def test_latency_is_pure_serialization_without_contention(self, pair):
        records, expected = pair
        for record, (_, duration, _) in zip(records, expected):
            assert record.latency_s == pytest.approx(duration, rel=1e-12)

    def test_energy_matches_to_float_tolerance(self, pair):
        records, expected = pair
        for record, (_, _, energy) in zip(records, expected):
            assert record.energy_j == pytest.approx(energy, rel=1e-12)


def _grants_by_writer(result, *, reader):
    """Channel grants per writer of ``reader``: every attempt is one grant."""
    grants = {}
    for record in result.records:
        if record.destination == reader:
            grants[record.source] = grants.get(record.source, 0) + record.attempts
    return grants


class TestSaturationFairness:
    """Anchor (b): under saturation the arbiter serves writers fairly."""

    def test_equal_backlogs_get_equal_grants(self):
        # Every writer of reader 0's channel has 8 transfers queued at t=0:
        # round-robin token arbitration must grant each exactly its 8.
        requests = []
        for round_index in range(8):
            for writer in range(1, 12):
                requests.append(
                    TrafficRequest(
                        arrival_time_s=0.0,
                        source=writer,
                        destination=0,
                        payload_bits=512,
                        target_ber=1e-9,
                    )
                )
        result = network_simulator(crc=None, max_retries=0, seed=3).run(requests)
        grants = _grants_by_writer(result, reader=0)
        assert set(grants) == set(range(1, 12))
        assert all(count == 8 for count in grants.values())

    def test_poisson_saturation_has_bounded_grant_spread(self):
        # Overloaded hotspot channel: grants may only differ by the Poisson
        # noise of the per-writer arrival counts, never by starvation.
        traffic = HotspotTrafficGenerator(
            12,
            hotspot=0,
            hotspot_fraction=1.0,
            mean_request_rate_hz=1e9,
            payload_bits=4096,
            seed=17,
        )
        result = network_simulator(crc=None, max_retries=0, seed=23).run(
            traffic.generate(1100)
        )
        grants = _grants_by_writer(result, reader=0)
        counts = [grants[writer] for writer in range(1, 12)]
        mean = sum(counts) / len(counts)
        assert min(counts) > 0
        assert (max(counts) - min(counts)) < 0.6 * mean

    def test_saturated_channel_is_fully_utilized(self):
        requests = [
            TrafficRequest(0.0, writer, 0, 8192, 1e-9) for writer in range(1, 12)
        ] * 4
        result = network_simulator(crc=None, max_retries=0, warmup_fraction=0.0, seed=5).run(requests)
        metrics = result.metrics()
        # Not exactly 1.0: the token costs a hop or two between grants.
        assert metrics.channel_utilization[0] > 0.97
        assert metrics.channel_utilization[0] <= 1.0


class TestFaultModeAgreement:
    """Anchor (c): probabilistic vs bit-exact delivered error rates agree."""

    @pytest.fixture(scope="class")
    def results(self):
        # A fixed-code policy pins the configuration to H(7,4) at a
        # Monte-Carlo-friendly target (raw BER a few percent), CRC/ARQ off
        # so every corrupted packet is delivered and measurable.
        outcomes = {}
        for mode in ("probabilistic", "bit-exact"):
            traffic = UniformTrafficGenerator(
                12,
                mean_request_rate_hz=1e6,
                payload_bits=512,
                target_ber=1e-2,
                seed=101,
            )
            simulator = network_simulator(
                policy=FixedCodePolicy("H(7,4)"),
                mode=mode,
                crc=None,
                max_retries=0,
                packet_bits=64,
                warmup_fraction=0.0,
                seed=202,
            )
            outcomes[mode] = simulator.run(traffic.generate(400)).metrics()
        return outcomes

    def test_both_modes_observe_errors(self, results):
        for metrics in results.values():
            assert metrics.packets_with_residual_errors > 50

    def test_delivered_packet_error_rate_agrees(self, results):
        probabilistic = results["probabilistic"].delivered_packet_error_rate
        bit_exact = results["bit-exact"].delivered_packet_error_rate
        assert probabilistic == pytest.approx(bit_exact, rel=0.10)

    def test_delivered_bit_error_rate_agrees(self, results):
        probabilistic = results["probabilistic"].delivered_bit_error_rate
        bit_exact = results["bit-exact"].delivered_bit_error_rate
        assert probabilistic == pytest.approx(bit_exact, rel=0.25)

    def test_bit_error_rate_agrees_with_frame_padding(self):
        # Regression: packets that do not fill their ECC frame (here 50
        # payload bits in a 64-bit uncoded block) must not overcount
        # residual errors landing in the padding region.  Uncoded links
        # pass the raw BER straight through, so both modes must measure a
        # delivered-bit BER of ~the design raw BER (1e-2 at this target).
        rates = {}
        for mode in ("probabilistic", "bit-exact"):
            simulator = network_simulator(
                policy=FixedCodePolicy("w/o ECC"),
                mode=mode,
                crc=None,
                max_retries=0,
                packet_bits=50,
                warmup_fraction=0.0,
                seed=303,
            )
            traffic = UniformTrafficGenerator(
                12, mean_request_rate_hz=1e6, payload_bits=500, target_ber=1e-2, seed=404
            )
            rates[mode] = (
                simulator.run(traffic.generate(300))
                .metrics()
                .delivered_bit_error_rate
            )
        assert rates["probabilistic"] == pytest.approx(1e-2, rel=0.15)
        assert rates["probabilistic"] == pytest.approx(rates["bit-exact"], rel=0.15)

    def test_identical_timing_across_modes(self, results):
        # Fault sampling must not perturb the event timeline: both modes
        # serialise the same coded bits through the same arbitration.
        assert results["probabilistic"].sim_end_time_s == pytest.approx(
            results["bit-exact"].sim_end_time_s, rel=1e-12
        )


class TestArqRetransmission:
    def _noisy_simulator(self, *, max_retries: int, seed: int = 31) -> NetworkSimulator:
        return network_simulator(
            policy=FixedCodePolicy("H(7,4)"),
            crc="crc16-ccitt",
            max_retries=max_retries,
            packet_bits=64,
            seed=seed,
        )

    def _noisy_traffic(self, count: int = 150):
        return UniformTrafficGenerator(
            12,
            mean_request_rate_hz=1e6,
            payload_bits=512,
            target_ber=1e-2,
            seed=47,
        ).generate(count)

    def test_arq_retransmits_and_cleans_up_delivery(self):
        metrics = self._noisy_simulator(max_retries=6).run(self._noisy_traffic()).metrics()
        assert metrics.retransmission_rate > 0.05
        # At ~40% packet failure a handful of packets can exhaust even six
        # retries, but the vast majority must get through.
        assert metrics.packets_dropped < 0.02 * metrics.packets_delivered
        # CRC escapes are ~2^-16 of failures: essentially everything
        # delivered is clean.
        assert metrics.delivered_packet_error_rate < 1e-3

    def test_exhausted_retries_drop_packets(self):
        metrics = self._noisy_simulator(max_retries=0).run(self._noisy_traffic()).metrics()
        assert metrics.packets_dropped > 0
        assert metrics.packets_delivered + metrics.packets_dropped == metrics.packets_sent

    def test_retransmissions_occupy_the_channel(self):
        with_arq = self._noisy_simulator(max_retries=6).run(self._noisy_traffic()).metrics()
        without = (
            network_simulator(
                policy=FixedCodePolicy("H(7,4)"),
                crc=None,
                max_retries=0,
                packet_bits=64,
                seed=31,
            )
            .run(self._noisy_traffic())
            .metrics()
        )
        assert with_arq.packets_sent > without.packets_sent
        assert with_arq.total_energy_j > without.total_energy_j


class TestEngineBehaviour:
    def test_same_seed_reproduces_the_run_exactly(self):
        def run():
            traffic = UniformTrafficGenerator(
                12, mean_request_rate_hz=5e8, payload_bits=4096, seed=1
            )
            return (
                NetworkSimulator(seed=2).run(traffic.generate(300)).metrics().as_dict()
            )

        assert run() == run()

    def test_contending_transfers_queue_on_the_reader_channel(self):
        requests = [
            TrafficRequest(0.0, 1, 0, 8192, 1e-9),
            TrafficRequest(0.0, 2, 0, 8192, 1e-9),
        ]
        result = network_simulator(crc=None, max_retries=0, seed=9).run(requests)
        first, second = sorted(result.records, key=lambda r: r.first_start_time_s)
        assert second.first_start_time_s >= first.completion_time_s

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_the_token_skips_the_reader_and_wraps_round_the_writers(self, backend):
        # Reader 2's writers are ONIs 0, 1, 3, ..., 11 (token indices 0..10),
        # and the token starts at index 0.  Writer 1 is one hop away, writer
        # 3 one more (the reader is no stop), and writer 0 nine more
        # (round the 11 writers).
        requests = [
            TrafficRequest(0.0, 1, 2, 8192, 1e-9),
            TrafficRequest(0.0, 3, 2, 8192, 1e-9),
            TrafficRequest(0.0, 0, 2, 8192, 1e-9),
        ]
        simulator = network_simulator(crc=None, max_retries=0, seed=9)
        records = BACKENDS[backend](simulator, requests).records
        first, second, third = sorted(records, key=lambda r: r.first_start_time_s)
        hop_s = 1e-9
        assert (first.source, second.source, third.source) == (1, 3, 0)
        assert first.first_start_time_s == pytest.approx(hop_s, abs=1e-15)
        assert second.first_start_time_s - first.completion_time_s == pytest.approx(
            hop_s, abs=1e-15
        )
        assert third.first_start_time_s - second.completion_time_s == pytest.approx(
            9 * hop_s, abs=1e-15
        )

    def test_independent_readers_do_not_contend(self):
        requests = [
            TrafficRequest(0.0, 1, 0, 8192, 1e-9),
            TrafficRequest(0.0, 2, 3, 8192, 1e-9),
        ]
        result = network_simulator(crc=None, max_retries=0, seed=9).run(requests)
        for record in result.records:
            assert record.first_start_time_s == pytest.approx(0.0, abs=1e-7)

    def test_infeasible_policy_rejects_requests(self):
        # No scheme has CT <= 0.5, so the manager cannot configure anything.
        simulator = network_simulator(
            policy=DeadlineConstrainedPolicy(max_communication_time=0.5),
            crc=None,
            max_retries=0,
            seed=13,
        )
        result = simulator.run(_single_stream_requests(5))
        assert all(record.rejected for record in result.records)
        metrics = result.metrics()
        assert metrics.transfers_rejected == 5
        assert metrics.transfers_completed == 0

    def test_policy_changes_the_selected_configuration(self):
        energy = network_simulator(
            policy=MinimumEnergyPolicy(), crc=None, max_retries=0, seed=1
        ).run(_single_stream_requests(3))
        power = network_simulator(crc=None, max_retries=0, seed=1).run(
            _single_stream_requests(3)
        )
        # min-energy favours the low-CT H(71,64); min-power may differ, but
        # both must pick a paper code and record it.
        assert {record.code_name for record in energy.records} <= {
            "w/o ECC",
            "H(71,64)",
            "H(7,4)",
        }
        assert {record.code_name for record in power.records} <= {
            "w/o ECC",
            "H(71,64)",
            "H(7,4)",
        }

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkSimulator(mode="psychic")
        with pytest.raises(ConfigurationError):
            NetworkSimulator(packet_bits=0)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(max_retries=-1)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            # A drift model that misses reader channels of the 12-ONI ring.
            NetworkSimulator(dynamics=make_drift_model("thermal", 11, seed=0))

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("transfer_timeout_s", math.nan),
            ("transfer_timeout_s", 0.0),
            ("retry_backoff_s", math.nan),
            ("retry_backoff_s", math.inf),
            ("retry_backoff_s", -1e-9),
        ],
    )
    def test_nan_and_out_of_range_settings_are_rejected(self, setting, value):
        # A NaN timeout used to pass a ``<= 0`` check and drop every retry
        # (its deadline compares false); a NaN backoff passed the same way.
        with pytest.raises(ConfigurationError):
            NetworkSimulator(**{setting: value})

    def test_nan_backoff_is_rejected_under_a_ladder(self):
        with pytest.raises(ConfigurationError):
            NetworkSimulator(
                failures=make_fault_model(
                    "blackout",
                    DEFAULT_CONFIG.num_onis,
                    DEFAULT_CONFIG.num_wavelengths,
                    seed=0,
                    horizon_s=1e-6,
                ),
                degradation=DegradationLadder(
                    margins=margin_levels(4.0),
                    num_wavelengths=DEFAULT_CONFIG.num_wavelengths,
                ),
                retry_backoff_s=math.nan,
            )

    def test_there_is_no_engine_option(self):
        # One event core ships; the per-event loop lives in the tests.
        with pytest.raises(TypeError):
            NetworkSimulator(engine="batched")

    def test_seed_and_rng_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            NetworkSimulator(rng=np.random.default_rng(0), seed=1)

    def test_destination_outside_the_ring_is_rejected(self):
        with pytest.raises(SimulationError, match="ONI index 42"):
            NetworkSimulator(seed=1).run([TrafficRequest(0.0, 3, 42, 64, 1e-9)])

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("source, destination", [(3, -1), (3, 12), (-1, 3), (12, 3)])
    def test_an_oni_outside_the_ring_is_rejected(self, backend, source, destination):
        # A -1 must not wrap round to ONI 11's channel state, nor 12 open a
        # thirteenth channel, on either event loop.
        requests = [
            TrafficRequest(0.0, 1, 0, 64, 1e-9),
            TrafficRequest(0.0, source, destination, 64, 1e-9),
        ]
        bad = source if destination in range(12) else destination
        with pytest.raises(SimulationError, match=f"ONI index {bad} outside"):
            BACKENDS[backend](NetworkSimulator(seed=1), requests)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_a_reader_is_not_a_writer_on_its_own_channel(self, backend):
        self_addressed = TrafficRequest(0.0, 3, 4, 64, 1e-9)
        # TrafficRequest refuses source == destination itself; force one
        # past it to exercise the event loops' own guard.
        object.__setattr__(self_addressed, "destination", 3)
        requests = [TrafficRequest(0.0, 1, 0, 64, 1e-9), self_addressed]
        with pytest.raises(SimulationError, match="source and destination must differ"):
            BACKENDS[backend](NetworkSimulator(seed=1), requests)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "bad_times",
        [
            {0: math.nan},
            {25: math.nan},
            {50: math.nan},
            {0: -1e-9},
            {25: -math.inf},
            {50: -1.0},
            # A NaN compares false both ways, so a min() can step over it
            # to the negative time beside it (and -inf + inf sums to NaN).
            {10: math.nan, 11: -1.0},
            {10: -math.inf, 40: math.inf},
        ],
        ids=str,
    )
    def test_a_bad_arrival_time_fails_the_run(self, backend, bad_times):
        """A NaN or negative arrival is refused before any event runs."""
        traffic = UniformTrafficGenerator(
            12, mean_request_rate_hz=5e8, payload_bits=4096, seed=1
        )
        requests = list(traffic.generate(50))
        for position, time_s in sorted(bad_times.items()):
            broken = TrafficRequest(0.0, 1, 0, 4096, 1e-9)
            # TrafficRequest refuses a non-finite or negative time itself;
            # force one past it to exercise the event loops' own guard.
            object.__setattr__(broken, "arrival_time_s", time_s)
            requests.insert(position, broken)
        with pytest.raises(ConfigurationError, match="non-negative"):
            BACKENDS[backend](NetworkSimulator(seed=2), requests)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faults-only"])
    def test_a_run_needs_a_request(self, backend, faulted):
        # Fault transitions alone are no workload.
        failures = (
            make_fault_model(
                "blackout",
                DEFAULT_CONFIG.num_onis,
                DEFAULT_CONFIG.num_wavelengths,
                seed=0,
                horizon_s=1e-6,
            )
            if faulted
            else None
        )
        with pytest.raises(ConfigurationError, match="at least one request"):
            BACKENDS[backend](NetworkSimulator(seed=1, failures=failures), [])

    @pytest.mark.parametrize("time_s", [-1.0, math.nan])
    def test_a_bad_run_time_event_is_refused(self, time_s):
        from repro.netsim.epoch import _Run
        from repro.netsim.events import EventKind

        run = _Run(NetworkSimulator(seed=1))
        with pytest.raises(ConfigurationError, match="non-negative"):
            run.push(time_s, EventKind.DEPARTURE, None)
        assert run.heap == [] and run.sequence == 0


def _bit_exact(code_name: str = "H(7,4)", **kwargs) -> NetworkSimulator:
    kwargs.setdefault("seed", 0)
    return network_simulator(
        policy=FixedCodePolicy(code_name), mode="bit-exact", crc=None, max_retries=0, **kwargs
    )


class TestBitExactTransfers:
    """Single transfers round-tripped through real codewords."""

    def test_transfer_latency_includes_coding_overhead(self):
        (record,) = _bit_exact().run([TrafficRequest(0.0, 3, 0, 4096, 1e-11)]).records
        # 4096 bits * 7/4 coded, over 16 lambda at 10 Gb/s.
        assert record.coded_bits_sent == 4096 * 7 // 4
        assert record.completion_time_s - record.first_start_time_s == pytest.approx(
            4096 * 1.75 / (16 * 10e9), rel=1e-12
        )

    def test_energy_scales_with_payload(self):
        small, large = _bit_exact().run(
            [TrafficRequest(0.0, 3, 0, 1024, 1e-11), TrafficRequest(1e-3, 3, 0, 8192, 1e-11)]
        ).records
        assert large.energy_j == pytest.approx(8 * small.energy_j, rel=1e-12)

    def test_transfers_at_the_design_point_are_error_free(self):
        (record,) = _bit_exact().run([TrafficRequest(0.0, 2, 0, 4096, 1e-11)]).records
        assert record.residual_bit_errors == 0
        assert record.packets_delivered == record.packets_total

    def test_seed_reproduces_the_corruption(self):
        # At a 1e-3 target the design-point raw BER corrupts some packets.
        def record(seed):
            simulator = _bit_exact(seed=seed)
            (outcome,) = simulator.run([TrafficRequest(0.0, 3, 0, 4096, 1e-3)]).records
            return outcome.residual_bit_errors, outcome.packets_with_residual_errors

        assert record(99) == record(99)
        assert record(99)[0] > 0
        # A SeedSequence works as a seed too.
        assert record(np.random.SeedSequence(1234)) == record(np.random.SeedSequence(1234))

    def test_custom_fault_model_draws_from_its_own_generator(self):
        def record(model_seed, seed):
            model = IndependentErrorModel(2e-2, rng=np.random.default_rng(model_seed))
            simulator = _bit_exact(fault_model=model, seed=seed)
            (outcome,) = simulator.run([TrafficRequest(0.0, 3, 0, 4096, 1e-11)]).records
            return outcome.residual_bit_errors

        # The flips come from the model's generator, not the engine seed.
        assert record(7, seed=0) == record(7, seed=1) > 0
        assert len({record(model_seed, seed=0) for model_seed in range(6)}) > 1

    def test_a_fault_model_without_an_error_source_is_rejected_when_built(self):
        # It used to pass the constructor and fail only inside run(), as a
        # SimulationError from the first bit-exact transfer.
        model = SimpleNamespace(expected_ber=1e-3)
        with pytest.raises(ConfigurationError, match="sparse_error_positions or error_mask_packed"):
            _bit_exact(fault_model=model)

    def test_probabilistic_mode_reads_only_the_expected_ber(self):
        model = SimpleNamespace(expected_ber=1e-3)
        simulator = NetworkSimulator(mode="probabilistic", fault_model=model, seed=0)
        (record,) = simulator.run([TrafficRequest(0.0, 3, 0, 4096, 1e-11)]).records
        assert record.packets_total > 0

    def test_statistics_accumulate(self):
        requests = [TrafficRequest(index * 1e-6, 3, 0, 512, 1e-11) for index in range(3)]
        result = network_simulator(
            mode="bit-exact", crc=None, max_retries=0, warmup_fraction=0.0, seed=0
        ).run(requests)
        metrics = result.metrics()
        assert metrics.latency.count == 3
        assert metrics.channel_utilization[0] > 0.0
        assert metrics.total_energy_j == pytest.approx(
            sum(record.energy_j for record in result.records)
        )


class TestPacketisation:
    def test_payload_pads_to_whole_packets(self):
        assert packets_for_payload(100, 64) == 2
        assert packets_for_payload(128, 64) == 2
        assert packets_for_payload(129, 64) == 3

    def test_packetisation_validation(self):
        with pytest.raises(ConfigurationError):
            packets_for_payload(0, 64)
        with pytest.raises(ConfigurationError):
            packets_for_payload(64, 0)

    def test_padding_is_coded_but_not_delivered_as_payload(self):
        result = _bit_exact(packet_bits=64).run([TrafficRequest(0.0, 3, 0, 100, 1e-11)])
        (record,) = result.records
        assert record.packets_total == 2
        # Two 64-bit packets of 16 H(7,4) blocks each.
        assert record.coded_bits_sent == 2 * 16 * 7
        assert result.metrics().delivered_payload_bits == 100


class TestManagedTransfers:
    """The link manager's choice drives each transfer's time and energy."""

    def test_transfer_durations_scale_with_ct(self):
        requests = [TrafficRequest(0.0, 1, 0, 4096, 1e-11)]
        uncoded = network_simulator(
            policy=DeadlineConstrainedPolicy(max_communication_time=1.0),
            crc=None,
            max_retries=0,
            seed=0,
        ).run(requests).records[0]
        coded = network_simulator(crc=None, max_retries=0, seed=0).run(requests).records[0]
        assert uncoded.code_name == "w/o ECC"
        assert coded.code_name != "w/o ECC"
        assert coded.latency_s > uncoded.latency_s

    def test_records_support_deadline_accounting(self):
        requests = [
            TrafficRequest(0.0, 1, 0, 2048, 1e-11, deadline_s=1e-6),
            TrafficRequest(1e-3, 2, 0, 2048, 1e-11, deadline_s=1e-12),
        ]
        records = network_simulator(crc=None, max_retries=0, seed=0).run(requests).records
        assert all(record.energy_j > 0 for record in records)
        misses = [
            record.latency_s > request.deadline_s for record, request in zip(records, requests)
        ]
        # The second deadline (1 ps) is impossible to meet.
        assert misses == [False, True]

    def test_unsatisfiable_requests_spend_nothing(self):
        # No scheme has CT <= 0.5, so every request is rejected, not fatal.
        result = network_simulator(
            policy=DeadlineConstrainedPolicy(max_communication_time=0.5),
            crc=None,
            max_retries=0,
            seed=0,
        ).run(_single_stream_requests(2))
        for record in result.records:
            assert record.rejected
            assert record.code_name is None
            assert record.energy_j == 0.0
            assert record.packets_sent == 0
        assert result.metrics().delivered_payload_bits == 0


class _ExplodingController(AdaptiveEccController):
    """Telemetry consumer that dies after a set number of observations."""

    def __init__(self, *, explode_after: int = 0):
        super().__init__(margins=[1.0, 2.0], mode="adaptive")
        self._observations_left = explode_after

    def observe(self, channel, now_s, **kwargs):
        if self._observations_left <= 0:
            raise RuntimeError("telemetry pipeline exploded")
        self._observations_left -= 1
        return super().observe(channel, now_s, **kwargs)


class TestMidDrainErrorContext:
    """A crash deep inside a handler must name the event that broke the run."""

    def test_controller_crash_surfaces_with_event_context(self):
        simulator = NetworkSimulator(controller=_ExplodingController(), seed=3)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run(_single_stream_requests(3))
        message = str(excinfo.value)
        # The wrapper pins down what broke and when: event kind, simulated
        # time, and the position in the event stream.
        assert "DEPARTURE handler failed at t=" in message
        assert "(event #" in message
        assert "telemetry pipeline exploded" in message
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_simulation_errors_are_not_double_wrapped(self):
        class _DomainErrorController(_ExplodingController):
            def observe(self, channel, now_s, **kwargs):
                raise SimulationError("domain-level failure")

        simulator = NetworkSimulator(controller=_DomainErrorController(), seed=3)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run(_single_stream_requests(1))
        assert str(excinfo.value) == "domain-level failure"

    def test_crashed_run_does_not_poison_a_fresh_simulator(self):
        # Determinism after a failure: the same seed on a new engine must
        # reproduce the healthy run exactly, even though a sibling engine
        # just died mid-drain against the same traffic.
        requests = _single_stream_requests(5)
        baseline = NetworkSimulator(seed=11).run(requests).metrics().as_dict()
        with pytest.raises(SimulationError):
            NetworkSimulator(controller=_ExplodingController(explode_after=2), seed=11).run(
                requests
            )
        again = NetworkSimulator(seed=11).run(requests).metrics().as_dict()
        assert again == baseline


def _uniform_requests(count: int = 300, seed: int = 1, payload_bits: int = 4096):
    generator = UniformTrafficGenerator(
        12, mean_request_rate_hz=5e8, payload_bits=payload_bits, seed=seed
    )
    return list(generator.generate(count))


def _drift_case(profile: str, mode: str):
    def build():
        requests = _uniform_requests()
        horizon_s = requests[-1].arrival_time_s
        simulator = NetworkSimulator(
            seed=2,
            dynamics=make_drift_model(
                profile, 12, seed=17, worst_case_multiplier=16.0, timescale_s=horizon_s
            ),
            controller=AdaptiveEccController(margins=margin_levels(16.0), mode=mode),
            telemetry_seed=99,
        )
        return simulator, requests

    return build


def _faulted_case():
    requests = _uniform_requests()
    horizon_s = requests[-1].arrival_time_s
    config = DEFAULT_CONFIG
    failures = make_fault_model(
        "mixed", config.num_onis, config.num_wavelengths, seed=5, horizon_s=horizon_s
    )
    margins = margin_levels(max(failures.worst_case_penalty, 8.0))
    simulator = NetworkSimulator(
        seed=2,
        controller=AdaptiveEccController(margins=margins, mode="adaptive"),
        telemetry_seed=99,
        failures=failures,
        degradation=DegradationLadder(
            margins=margins, num_wavelengths=config.num_wavelengths
        ),
        retry_backoff_s=0.01 * horizon_s,
        transfer_timeout_s=0.5 * horizon_s,
    )
    return simulator, requests


def _noisy_static_case():
    """A static channel with ~40% packet failures: ARQ and flagged records."""
    simulator = NetworkSimulator(
        policy=FixedCodePolicy("H(7,4)"),
        max_retries=6,
        packet_bits=64,
        seed=31,
    )
    requests = UniformTrafficGenerator(
        12, mean_request_rate_hz=1e6, payload_bits=512, target_ber=1e-2, seed=47
    ).generate(150)
    return simulator, list(requests)


def _parked_case(channel: str, *, ladder: bool = False):
    """Parked first attempts on a noisy link: most get flagged.

    The flush swaps each flagged parked record for a stateful transfer,
    and blackouts turn first attempts stateful at arrival.
    """

    def build():
        requests = list(
            UniformTrafficGenerator(
                12, mean_request_rate_hz=1e6, payload_bits=512, target_ber=1e-2, seed=47
            ).generate(150)
        )
        horizon_s = requests[-1].arrival_time_s
        kwargs = {}
        if channel == "thermal":
            kwargs["dynamics"] = make_drift_model(
                "thermal", 12, seed=17, worst_case_multiplier=4.0, timescale_s=horizon_s
            )
        else:
            kwargs["failures"] = make_fault_model(
                channel,
                DEFAULT_CONFIG.num_onis,
                DEFAULT_CONFIG.num_wavelengths,
                seed=5,
                horizon_s=horizon_s,
            )
            if ladder:
                kwargs["degradation"] = DegradationLadder(
                    margins=margin_levels(4.0),
                    num_wavelengths=DEFAULT_CONFIG.num_wavelengths,
                )
        simulator = NetworkSimulator(
            policy=FixedCodePolicy("H(7,4)"),
            packet_bits=64,
            max_retries=6,
            seed=31,
            controller=AdaptiveEccController(margins=margin_levels(4.0), mode="adaptive"),
            telemetry_seed=99,
            retry_backoff_s=0.01 * horizon_s,
            transfer_timeout_s=0.5 * horizon_s,
            **kwargs,
        )
        return simulator, requests

    return build


#: Configuration name -> builder of ``(simulator, requests)``.
_NO_CYCLE_CASES = {
    "static-channel": lambda: (NetworkSimulator(seed=2), _uniform_requests()),
    "static-channel-arq": _noisy_static_case,
    "thermal-adaptive": _drift_case("thermal", "adaptive"),
    "random-walk-adaptive": _drift_case("random-walk", "adaptive"),
    "thermal-oracle": _drift_case("thermal", "oracle"),
    "mixed-faults-ladder": _faulted_case,
    "parked-thermal-adaptive": _parked_case("thermal"),
    "parked-mixed-faults": _parked_case("mixed"),
    "parked-blackout-ladder": _parked_case("blackout", ladder=True),
    "bit-exact-crc": lambda: (
        NetworkSimulator(seed=2, mode="bit-exact"),
        _uniform_requests(count=40, payload_bits=2048),
    ),
    "reference-engine": lambda: (
        SimpleNamespace(run=partial(run_reference, NetworkSimulator(seed=2))),
        _uniform_requests(),
    ),
}


class _CollectorProbe(AdaptiveEccController):
    """Adaptive controller recording whether the collector ran each observation."""

    def __init__(self):
        super().__init__(margins=[1.0, 2.0], mode="adaptive")
        self.collector_states = []

    def observe(self, channel, now_s, **kwargs):
        self.collector_states.append(gc.isenabled())
        return super().observe(channel, now_s, **kwargs)


class TestCollectorPause:
    """``run`` pauses the cyclic collector, which is sound only without cycles."""

    @pytest.mark.parametrize("case", sorted(_NO_CYCLE_CASES))
    def test_run_creates_no_reference_cycles(self, case):
        # A warm-up run first: one-off first-use imports leave cyclic garbage
        # of their own (NumPy's ``unique`` imports ``numpy.ma`` lazily), which
        # is not a run's.  A cycle every run creates still shows below.
        warm_simulator, warm_requests = _NO_CYCLE_CASES[case]()
        warm_simulator.run(warm_requests)
        simulator, requests = _NO_CYCLE_CASES[case]()
        gc.collect()
        gc.disable()
        try:
            result = simulator.run(requests)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(result.records) == len(requests)

    def test_collector_paused_during_and_restored_after_a_run(self):
        probe = _CollectorProbe()
        assert gc.isenabled()
        NetworkSimulator(controller=probe, seed=3).run(_single_stream_requests(3))
        assert probe.collector_states and not any(probe.collector_states)
        assert gc.isenabled()

    def test_collector_restored_after_a_crashed_run(self):
        assert gc.isenabled()
        with pytest.raises(SimulationError):
            NetworkSimulator(controller=_ExplodingController(), seed=3).run(
                _single_stream_requests(3)
            )
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            NetworkSimulator(seed=3).run(_single_stream_requests(3))
            assert not gc.isenabled()
            with pytest.raises(SimulationError):
                NetworkSimulator(controller=_ExplodingController(), seed=3).run(
                    _single_stream_requests(3)
                )
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestInstrumentationOverhead:
    """Metrics plus tracing keep at least 0.80x of the plain run's events/s.

    Both legs run in the same process seconds apart on identical traffic,
    so the ratio is robust to the host's speed.  Each attempt takes the
    best of five runs per leg, and the best of up to five attempts
    counts, which rejects scheduler noise without lowering the floor.
    """

    FLOOR = 0.80

    @staticmethod
    def _best_events_per_s(simulator, requests, repeats=5) -> float:
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            result = simulator.run(requests)
            best = max(best, result.events_processed / (time.perf_counter() - start))
        return best

    def test_instrumented_throughput_stays_above_the_floor(self):
        rate = request_rate_for_load(0.5, payload_bits=65536)
        requests = list(
            UniformTrafficGenerator(
                12, mean_request_rate_hz=rate, payload_bits=65536, seed=7
            ).generate(2000)
        )
        plain = NetworkSimulator(seed=11)
        instrumented = NetworkSimulator(seed=11)
        # Warm both managers' caches so the legs time the event loop only.
        plain.run(requests[:20])
        instrumented.run(requests[:20])
        ratios = []
        for _ in range(5):
            disabled = self._best_events_per_s(plain, requests)
            with open(os.devnull, "w", encoding="utf-8") as sink, obs_metrics.collecting():
                obs_tracing.enable_tracing(sink)
                try:
                    enabled = self._best_events_per_s(instrumented, requests)
                finally:
                    obs_tracing.disable_tracing()
            ratios.append(enabled / disabled)
            if ratios[-1] >= self.FLOOR:
                break
        assert max(ratios) >= self.FLOOR, ratios
