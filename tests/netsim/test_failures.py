"""Tests for hard-fault timelines, the degradation ladder and engine wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.manager.policies import DegradationLadder, margin_levels
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import NetworkSimulator
from repro.netsim.failures import (
    FAULT_SCENARIOS,
    ChannelFaultTimeline,
    ChannelHealth,
    HardFaultModel,
    make_fault_model,
)
from repro.traffic.generators import UniformTrafficGenerator

NW = DEFAULT_CONFIG.num_wavelengths


class TestChannelHealth:
    def test_down_predicate(self):
        assert not ChannelHealth(wavelengths_available=NW).down
        assert ChannelHealth(wavelengths_available=0).down
        assert ChannelHealth(wavelengths_available=NW, blacked_out=True).down
        assert ChannelHealth(wavelengths_available=NW, failed=True).down


class TestChannelFaultTimeline:
    def test_nominal_before_first_fault(self):
        timeline = ChannelFaultTimeline(NW, fail_time_s=1e-6)
        health = timeline.health_at(0.5e-6)
        assert health.wavelengths_available == NW
        assert not health.down

    def test_lane_fail_is_permanent(self):
        timeline = ChannelFaultTimeline(NW, fail_time_s=1e-6)
        for t in (1e-6, 2e-6, 1.0):
            health = timeline.health_at(t)
            assert health.failed and health.down
            assert health.wavelengths_available == 0

    def test_wavelength_losses_accumulate(self):
        timeline = ChannelFaultTimeline(NW, wavelength_loss_times_s=[1e-6, 2e-6])
        assert timeline.health_at(1.5e-6).wavelengths_available == NW - 1
        assert timeline.health_at(3e-6).wavelengths_available == NW - 2

    def test_blackout_window_recovers(self):
        timeline = ChannelFaultTimeline(NW, blackout_windows_s=[(1e-6, 2e-6)])
        assert not timeline.health_at(0.9e-6).down
        assert timeline.health_at(1.5e-6).blacked_out
        after = timeline.health_at(2.5e-6)
        assert not after.down and after.wavelengths_available == NW

    def test_overlapping_blackouts_are_merged(self):
        timeline = ChannelFaultTimeline(
            NW, blackout_windows_s=[(1e-6, 3e-6), (2e-6, 4e-6)]
        )
        kinds = [t.kind for t in timeline.transitions()]
        assert kinds == ["blackout-start", "blackout-end"]
        assert timeline.health_at(3.5e-6).blacked_out

    def test_droop_steps_monotone_penalty(self):
        timeline = ChannelFaultTimeline(
            NW, droop_steps=[(1e-6, 2.0), (2e-6, 4.0)]
        )
        assert timeline.health_at(1.5e-6).ber_penalty_multiplier == 2.0
        assert timeline.health_at(2.5e-6).ber_penalty_multiplier == 4.0

    def test_nothing_after_a_hard_fail(self):
        timeline = ChannelFaultTimeline(
            NW, fail_time_s=1e-6, blackout_windows_s=[(2e-6, 3e-6)]
        )
        kinds = [t.kind for t in timeline.transitions()]
        assert kinds == ["lane-fail"]

    def test_negative_time_rejected(self):
        timeline = ChannelFaultTimeline(NW)
        with pytest.raises(ConfigurationError):
            timeline.health_at(-1.0)
        with pytest.raises(ConfigurationError):
            timeline.health_at(float("nan"))
        with pytest.raises(ConfigurationError):
            ChannelFaultTimeline(NW, fail_time_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChannelFaultTimeline(NW, blackout_windows_s=[(2e-6, 1e-6)])


class TestHardFaultModel:
    def test_transitions_sorted_by_time_then_channel(self):
        model = HardFaultModel(
            [
                ChannelFaultTimeline(NW, fail_time_s=2e-6),
                ChannelFaultTimeline(NW, fail_time_s=1e-6),
            ]
        )
        transitions = model.transitions()
        assert [(t.time_s, t.channel) for t in transitions] == [(1e-6, 1), (2e-6, 0)]

    def test_mixed_wavelength_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            HardFaultModel(
                [ChannelFaultTimeline(NW), ChannelFaultTimeline(NW - 1)]
            )

    @pytest.mark.parametrize("channel", [-1, 2])
    def test_channel_outside_the_model_rejected(self, channel):
        model = HardFaultModel(
            [ChannelFaultTimeline(NW, fail_time_s=1e-6), ChannelFaultTimeline(NW)]
        )
        with pytest.raises(ConfigurationError):
            model.health(channel, 2e-6)
        with pytest.raises(ConfigurationError):
            model.timeline(channel)

    def test_worst_case_penalty(self):
        model = HardFaultModel(
            [ChannelFaultTimeline(NW, droop_steps=[(1e-6, 3.0)]), ChannelFaultTimeline(NW)]
        )
        assert model.worst_case_penalty == 3.0


class TestMakeFaultModel:
    def test_none_scenario_returns_none(self):
        assert make_fault_model("none", 4, NW, seed=1) is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fault_model("volcano", 4, NW, seed=1)

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fault_model("blackout", 4, NW, seed=1, options={"severity": 3})

    @pytest.mark.parametrize("scenario", [s for s in FAULT_SCENARIOS if s != "none"])
    def test_same_seed_same_timelines(self, scenario):
        a = make_fault_model(scenario, 6, NW, seed=42, horizon_s=1e-5)
        b = make_fault_model(scenario, 6, NW, seed=42, horizon_s=1e-5)
        for channel in range(6):
            ta = a.timeline(channel).transitions()
            tb = b.timeline(channel).transitions()
            assert [(t.time_s, t.kind) for t in ta] == [(t.time_s, t.kind) for t in tb]

    def test_health_queries_are_order_independent(self):
        model = make_fault_model("mixed", 6, NW, seed=42, horizon_s=1e-5)
        times = np.linspace(0.0, 1e-5, 37)
        forward = [model.health(2, float(t)) for t in times]
        backward = [model.health(2, float(t)) for t in reversed(times)]
        assert forward == list(reversed(backward))


class TestDegradationLadder:
    def _ladder(self, **kwargs):
        return DegradationLadder(
            margins=margin_levels(8.0), num_wavelengths=NW, **kwargs
        )

    def test_nominal_channel_serves_at_full_rate(self):
        action = self._ladder().action_for(ChannelHealth(wavelengths_available=NW))
        assert action.serve and action.rung == "nominal"
        assert action.wavelengths == NW
        assert action.margin_multiplier == 1.0
        assert action.derate_factor == 1.0

    def test_lost_wavelengths_remap(self):
        action = self._ladder().action_for(ChannelHealth(wavelengths_available=NW - 1))
        assert action.serve and action.rung == "remap"
        assert action.wavelengths == NW - 1

    def test_droop_escalates_margin(self):
        action = self._ladder().action_for(
            ChannelHealth(wavelengths_available=NW, ber_penalty_multiplier=3.0)
        )
        assert action.serve and action.rung == "margin"
        assert action.margin_multiplier == 4.0  # smallest ladder level >= 3

    def test_penalty_beyond_ladder_derates(self):
        action = self._ladder().action_for(
            ChannelHealth(wavelengths_available=NW, ber_penalty_multiplier=20.0)
        )
        assert action.serve and action.rung == "derate"
        # Each halving buys a 2x raw-BER allowance: 20/2 = 10 still exceeds
        # the top margin (8), 20/4 = 5 fits.
        assert action.derate_factor == 4.0
        assert action.margin_multiplier >= 20.0 / action.derate_factor

    def test_unrecoverable_penalty_declares_down(self):
        ladder = self._ladder(max_derate_factor=2.0)
        action = ladder.action_for(
            ChannelHealth(wavelengths_available=NW, ber_penalty_multiplier=1e6)
        )
        assert not action.serve and action.rung == "down"

    def test_failed_channel_is_down_but_blackout_is_deferrable(self):
        ladder = self._ladder()
        failed = ladder.action_for(ChannelHealth(wavelengths_available=0, failed=True))
        assert not failed.serve and failed.rung == "down"
        # A blackout is transient: the ladder keeps serving (the engine
        # defers the attempt through the backed-off retry path instead).
        blackout = ladder.action_for(
            ChannelHealth(wavelengths_available=NW, blacked_out=True)
        )
        assert blackout.serve and blackout.rung == "blackout"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(margins=[2.0, 1.0], num_wavelengths=NW)
        with pytest.raises(ConfigurationError):
            DegradationLadder(margins=[1.0], num_wavelengths=0)


class TestControllerForceMargin:
    def test_escalates_to_covering_level(self):
        controller = AdaptiveEccController(margins=[1.0, 2.0, 4.0], mode="adaptive")
        controller.force_margin(0, 3.0, now_s=1e-6)
        assert controller.switch_count == 1
        assert controller.margins[controller.level(0)] == 4.0
        assert controller.blocked_until(0) > 1e-6

    def test_never_downgrades(self):
        controller = AdaptiveEccController(margins=[1.0, 2.0, 4.0], mode="adaptive")
        controller.force_margin(0, 4.0, now_s=0.0)
        controller.force_margin(0, 1.5, now_s=1e-6)
        assert controller.switch_count == 1
        assert controller.margins[controller.level(0)] == 4.0

    def test_invalid_multiplier_rejected(self):
        controller = AdaptiveEccController(margins=[1.0, 2.0], mode="adaptive")
        with pytest.raises(ConfigurationError):
            controller.force_margin(0, 0.5, now_s=0.0)


def _traffic(n=200, seed=1):
    generator = UniformTrafficGenerator(
        DEFAULT_CONFIG.num_onis, mean_request_rate_hz=5e8, seed=seed
    )
    return list(generator.generate(n))


def _all_channels(timeline_factory):
    return HardFaultModel(
        [timeline_factory() for _ in range(DEFAULT_CONFIG.num_onis)]
    )


class TestEngineFaultWiring:
    def test_constructor_validation(self):
        failures = _all_channels(lambda: ChannelFaultTimeline(NW))
        ladder = DegradationLadder(margins=[1.0, 2.0], num_wavelengths=NW)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(failures=failures, mode="bit-exact")
        with pytest.raises(ConfigurationError):
            NetworkSimulator(degradation=ladder)  # ladder without failures
        with pytest.raises(ConfigurationError):
            # Ladder requires a positive backoff (blackout deferral path).
            NetworkSimulator(failures=failures, degradation=ladder)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(retry_backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(transfer_timeout_s=0.0)

    def test_lane_fail_drops_and_charges_downtime(self):
        requests = _traffic()
        horizon = max(r.arrival_time_s for r in requests)
        fail_at = horizon / 3
        failures = _all_channels(
            lambda: ChannelFaultTimeline(NW, fail_time_s=fail_at)
        )
        ladder = DegradationLadder(margins=[1.0, 2.0], num_wavelengths=NW)
        sim = NetworkSimulator(
            seed=3, failures=failures, degradation=ladder, retry_backoff_s=1e-8
        )
        metrics = sim.run(iter(requests)).metrics()
        assert metrics.transfers_dropped > 0
        assert metrics.availability < 1.0
        assert metrics.recoveries == 0  # lane fails never come back
        assert metrics.channel_downtime_s > 0.0

    def test_blackout_defers_and_recovers(self):
        requests = _traffic()
        horizon = max(r.arrival_time_s for r in requests)
        window = (horizon * 0.3, horizon * 0.5)
        failures = _all_channels(
            lambda: ChannelFaultTimeline(NW, blackout_windows_s=[window])
        )
        ladder = DegradationLadder(margins=[1.0, 2.0], num_wavelengths=NW)
        sim = NetworkSimulator(
            seed=3,
            failures=failures,
            degradation=ladder,
            retry_backoff_s=horizon / 50,
            transfer_timeout_s=horizon,
        )
        result = sim.run(iter(requests))
        metrics = result.metrics()
        assert metrics.recoveries == DEFAULT_CONFIG.num_onis
        assert metrics.mean_time_to_recover_s == pytest.approx(window[1] - window[0])
        # Deferred transfers were eventually delivered after the blackout.
        assert metrics.availability < 1.0
        assert any(r.attempts >= 1 and r.packets_delivered > 0 for r in result.records)

    def test_blackout_without_ladder_consumes_no_rng(self):
        """A dark-channel attempt must not touch the main stream.

        Two runs with the same engine seed — one fault free, one fully
        blacked out from t=0 — must produce delivered packets drawn from an
        identical generator state once the blackout ends (here: never; the
        comparison is that the blackout run drops everything determinately
        without sampling)."""
        requests = _traffic(50)
        horizon = max(r.arrival_time_s for r in requests) + 1.0
        failures = _all_channels(
            lambda: ChannelFaultTimeline(NW, blackout_windows_s=[(0.0, horizon)])
        )
        a = NetworkSimulator(seed=5, failures=failures, max_retries=1).run(iter(requests))
        b = NetworkSimulator(seed=5, failures=failures, max_retries=1).run(iter(requests))
        assert a.records == b.records
        assert all(r.packets_delivered == 0 for r in a.records)
        # Loss of light is detected even without residual-error sampling.
        assert all(r.packets_with_residual_errors == 0 for r in a.records)

    def test_fault_free_model_matches_legacy_run_exactly(self):
        """An all-healthy fault model must not perturb the simulation."""
        requests = _traffic()
        legacy = NetworkSimulator(seed=7).run(iter(requests))
        faultfree = NetworkSimulator(
            seed=7, failures=_all_channels(lambda: ChannelFaultTimeline(NW))
        ).run(iter(requests))
        assert legacy.records == faultfree.records

    def test_degraded_run_is_deterministic(self):
        requests = _traffic()
        horizon = max(r.arrival_time_s for r in requests)
        model = make_fault_model(
            "mixed", DEFAULT_CONFIG.num_onis, NW, seed=11, horizon_s=horizon
        )
        ladder = DegradationLadder(margins=margin_levels(8.0), num_wavelengths=NW)

        def run_once():
            return NetworkSimulator(
                seed=13,
                failures=model,
                degradation=ladder,
                retry_backoff_s=horizon / 100,
                transfer_timeout_s=horizon,
            ).run(iter(requests))

        assert run_once().records == run_once().records
