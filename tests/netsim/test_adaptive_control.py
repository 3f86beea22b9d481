"""Online adaptive-ECC control: parity, switching and penalties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.manager.manager import (
    CommunicationRequest,
    OpticalLinkManager,
    derated_target_ber,
)
from repro.manager.policies import (
    DegradationLadder,
    FailureRateMonitor,
    HysteresisSwitchingPolicy,
    margin_levels,
)
from repro.manager.runtime import AdaptiveEccController
from repro.config import DEFAULT_CONFIG
from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model
from repro.simulation.faults import IndependentErrorModel
from repro.traffic.generators import UniformTrafficGenerator

from repro.experiments.network import request_rate_for_load


def _requests(seed=7, count=300, load=0.4, payload_bits=4096):
    rate = request_rate_for_load(load, payload_bits=payload_bits)
    generator = UniformTrafficGenerator(
        12,
        mean_request_rate_hz=rate,
        payload_bits=payload_bits,
        seed=np.random.SeedSequence(seed),
    )
    return list(generator.generate(count))


class TestMarginLevels:
    def test_ladder_shape(self):
        assert margin_levels(16.0) == [1.0, 2.0, 4.0, 8.0, 16.0]
        assert margin_levels(1.0) == [1.0]
        assert margin_levels(10.0) == [1.0, 2.0, 4.0, 8.0, 10.0]
        assert margin_levels(9.0, ratio=3.0) == [1.0, 3.0, 9.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            margin_levels(0.5)
        with pytest.raises(ConfigurationError):
            margin_levels(4.0, ratio=1.0)


class TestDeratedTarget:
    def test_margin_one_is_bit_exact_identity(self):
        manager = OpticalLinkManager()
        for code in manager.codes:
            assert derated_target_ber(code, 1e-9, 1.0) == 1e-9

    def test_margin_tightens_the_target(self):
        manager = OpticalLinkManager()
        for code in manager.codes:
            derated = derated_target_ber(code, 1e-9, 8.0)
            assert 0.0 < derated < 1e-9

    def test_margin_rejects_below_one(self):
        manager = OpticalLinkManager()
        with pytest.raises(ConfigurationError):
            derated_target_ber(manager.codes[0], 1e-9, 0.5)

    def test_margined_configuration_costs_more_power(self):
        manager = OpticalLinkManager()
        request = CommunicationRequest(source=1, destination=0, target_ber=1e-9)
        nominal = manager.configure(request)
        margined = manager.configure(request, margin_multiplier=16.0)
        code = next(c for c in manager.codes if c.name == margined.code_name)
        assert margined.design_target_ber == derated_target_ber(code, 1e-9, 16.0)
        assert margined.design_target_ber < nominal.design_target_ber
        assert margined.channel_power_w > nominal.channel_power_w

    def test_margin_one_matches_unmargined_configure(self):
        manager = OpticalLinkManager()
        request = CommunicationRequest(source=1, destination=0, target_ber=1e-9)
        plain = manager.configure(request)
        explicit = manager.configure(request, margin_multiplier=1.0)
        assert plain.code_name == explicit.code_name
        assert plain.design_target_ber == explicit.design_target_ber
        assert plain.laser_output_power_w == explicit.laser_output_power_w


class TestMonitorAndHysteresis:
    def test_monitor_emits_once_per_window(self):
        monitor = FailureRateMonitor(window_blocks=100)
        assert monitor.observe(60, 1.0, 0.5) is None
        estimate = monitor.observe(60, 2.0, 0.5)
        assert estimate == pytest.approx(3.0)  # (1+2)/(0.5+0.5)
        # The window reset: a fresh accumulation starts.
        assert monitor.observe(60, 0.0, 1.0) is None

    def test_monitor_reports_estimates_below_one(self):
        # Unclamped: a quiet window must be able to report a calm channel,
        # otherwise level 1 -> 0 downgrades are unreachable (the downgrade
        # threshold at level 1 is below 1.0).
        monitor = FailureRateMonitor(window_blocks=10)
        assert monitor.observe(10, 0.0, 5.0) == 0.0
        assert monitor.observe(10, 1.0, 4.0) == pytest.approx(0.25)

    def test_monitor_no_expectation_is_neutral(self):
        monitor = FailureRateMonitor(window_blocks=10)
        assert monitor.observe(10, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("slot", ["blocks", "observed", "expected"])
    def test_monitor_rejects_non_finite_telemetry(self, slot, bad):
        values = {"blocks": 10, "observed": 1.0, "expected": 1.0, slot: bad}
        monitor = FailureRateMonitor(window_blocks=100)
        with pytest.raises(ConfigurationError):
            monitor.observe(values["blocks"], values["observed"], values["expected"])

    def test_rejected_nan_does_not_poison_the_window(self):
        """Regression: one NaN used to freeze the level through a 100x drift."""
        controller = AdaptiveEccController(
            margins=[1.0, 2.0],
            mode="adaptive",
            monitor=FailureRateMonitor(window_blocks=20),
        )
        with pytest.raises(ConfigurationError):
            controller.observe(
                0, 0.0, blocks=10, observed_events=float("nan"), expected_events=1.0
            )
        controller.observe(0, 1.0, blocks=20, observed_events=100.0, expected_events=1.0)
        assert controller.level(0) == 1
        assert controller.switch_count == 1

    def test_policy_nominal_channel_never_upgrades(self):
        policy = HysteresisSwitchingPolicy()
        margins = [1.0, 2.0, 4.0]
        assert policy.decide(1.0, margins, 0, 0) == (0, False)

    def test_policy_upgrades_past_headroom(self):
        policy = HysteresisSwitchingPolicy()
        margins = [1.0, 2.0, 4.0]
        assert policy.decide(1.5, margins, 0, 0) == (1, False)
        assert policy.decide(3.0, margins, 1, 0) == (1, False)
        # top level cannot upgrade further
        assert policy.decide(100.0, margins, 2, 0) == (0, False)

    def test_policy_downgrade_requires_calm_streak(self):
        policy = HysteresisSwitchingPolicy()
        margins = [1.0, 2.0, 4.0]
        # estimate well below the lower level's margin, but only one window
        assert policy.decide(0.5, margins, 1, 0) == (0, True)
        assert policy.decide(0.5, margins, 1, 1) == (-1, True)
        # level 0 has nothing to downgrade to
        assert policy.decide(0.5, margins, 0, 5) == (0, False)


class TestController:
    def test_static_mode_always_top_level(self):
        controller = AdaptiveEccController(margins=[1.0, 4.0, 16.0], mode="static")
        assert controller.margin_for(3, 0.0, true_multiplier=1.0) == 16.0
        assert controller.switch_count == 0
        assert not controller.wants_observations

    def test_oracle_tracks_the_true_multiplier(self):
        controller = AdaptiveEccController(
            margins=[1.0, 2.0, 4.0], mode="oracle", switch_energy_j=2e-9
        )
        assert controller.margin_for(0, 0.0, true_multiplier=1.0) == 1.0
        assert controller.switch_count == 0
        assert controller.margin_for(0, 1.0, true_multiplier=3.0) == 4.0
        assert controller.switch_count == 1
        assert controller.blocked_until(0) == pytest.approx(1.0 + controller.switch_latency_s)
        assert controller.margin_for(0, 2.0, true_multiplier=1.5) == 2.0
        assert controller.switch_count == 2
        assert controller.reconfiguration_energy_j == pytest.approx(4e-9)
        # beyond-worst-case multipliers clamp to the top level
        assert controller.margin_for(0, 3.0, true_multiplier=100.0) == 4.0

    def test_adaptive_mode_switches_on_monitor_estimate(self):
        controller = AdaptiveEccController(
            margins=[1.0, 2.0],
            mode="adaptive",
            monitor=FailureRateMonitor(window_blocks=10),
        )
        assert controller.wants_observations
        controller.observe(0, 1.0, blocks=10, observed_events=30.0, expected_events=10.0)
        assert controller.level(0) == 1
        assert controller.switch_count == 1

    def test_adaptive_channel_can_return_to_level_zero(self):
        """Regression: the bottom rung must not be sticky once upgraded."""
        controller = AdaptiveEccController(
            margins=[1.0, 2.0, 4.0],
            mode="adaptive",
            monitor=FailureRateMonitor(window_blocks=10),
            switching_policy=HysteresisSwitchingPolicy(),
        )
        controller.observe(0, 0.0, blocks=10, observed_events=30.0, expected_events=10.0)
        assert controller.level(0) == 1
        # Quiet telemetry: zero observed events against a real expectation.
        for window in range(10):
            controller.observe(
                0, 1.0 + window, blocks=10, observed_events=0.0, expected_events=2.0
            )
            if controller.level(0) == 0:
                break
        assert controller.level(0) == 0
        assert controller.switch_count == 2

    def test_downgrade_check_runs_once_per_closed_window(self):
        evaluations = []

        class CountingPolicy(HysteresisSwitchingPolicy):
            def qualifies_for_downgrade(self, estimated_multiplier, margins, level):
                evaluations.append(level)
                return super().qualifies_for_downgrade(estimated_multiplier, margins, level)

        controller = AdaptiveEccController(
            margins=[1.0, 2.0, 4.0],
            mode="adaptive",
            monitor=FailureRateMonitor(window_blocks=10),
            switching_policy=CountingPolicy(),
        )
        controller.force_margin(0, 4.0, 0.0)
        # Calm windows step the level 2 -> 1 -> 0, a middling one at level 1
        # breaks the streak, and each window closes on its second feed.
        ratios = [0.1, 0.1, 1.0, 0.1, 0.1, 1.0, 0.1, 1.0]
        closed = 0
        for window, ratio in enumerate(ratios):
            for half in range(2):
                controller.observe(
                    0, window + half / 2, blocks=5, observed_events=ratio, expected_events=1.0
                )
            closed += 1
            assert len(evaluations) == closed
        assert controller.level(0) == 0
        assert evaluations == [2, 2, 1, 1, 1, 0, 0, 0]

    def test_reset_clears_state(self):
        controller = AdaptiveEccController(margins=[1.0, 2.0], mode="oracle")
        controller.margin_for(0, 0.0, true_multiplier=2.0)
        assert controller.switch_count == 1
        controller.reset()
        assert controller.switch_count == 0
        assert controller.level(0) == 0
        assert controller.blocked_until(0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveEccController(margins=[1.0], mode="psychic")
        with pytest.raises(ConfigurationError):
            AdaptiveEccController(margins=[])
        with pytest.raises(ConfigurationError):
            AdaptiveEccController(margins=[2.0, 1.0])
        with pytest.raises(ConfigurationError):
            AdaptiveEccController(margins=[1.0, 2.0], switch_latency_s=-1.0)


class TestEngineIntegration:
    def test_zero_drift_adaptive_reproduces_static_netsim_exactly(self):
        """The zero-drift parity guard: controller on, drift none == today."""
        plain = NetworkSimulator(seed=np.random.SeedSequence(11)).run(_requests())
        controller = AdaptiveEccController(margins=margin_levels(1.0), mode="adaptive")
        managed = NetworkSimulator(
            seed=np.random.SeedSequence(11),
            controller=controller,
            telemetry_seed=np.random.SeedSequence(99),
        ).run(_requests())
        assert plain.records == managed.records
        assert managed.configuration_switches == 0
        assert plain.metrics().as_dict() == managed.metrics().as_dict()

    def test_dynamics_require_probabilistic_mode(self):
        drift = make_drift_model("thermal", 12, seed=0, timescale_s=1e-6)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(mode="bit-exact", dynamics=drift)

    def test_adaptive_controller_requires_probabilistic_mode(self):
        controller = AdaptiveEccController(margins=margin_levels(4.0), mode="adaptive")
        with pytest.raises(ConfigurationError):
            NetworkSimulator(mode="bit-exact", controller=controller)
        # Observation-free modes are fine bit-exactly (margins still apply).
        static = AdaptiveEccController(margins=margin_levels(4.0), mode="static")
        NetworkSimulator(mode="bit-exact", controller=static)

    def test_dynamics_refuse_custom_fault_model(self):
        drift = make_drift_model("thermal", 12, seed=0, timescale_s=1e-6)
        with pytest.raises(ConfigurationError):
            NetworkSimulator(
                dynamics=drift, fault_model=IndependentErrorModel(1e-4, rng=np.random.default_rng(0))
            )

    def test_static_worst_case_beats_nothing_but_meets_margin(self):
        """Static worst-case pays more energy than the unmargined baseline."""
        requests = _requests(count=200)
        baseline = NetworkSimulator(seed=np.random.SeedSequence(3)).run(requests)
        controller = AdaptiveEccController(margins=margin_levels(16.0), mode="static")
        margined = NetworkSimulator(
            seed=np.random.SeedSequence(3), controller=controller, telemetry_seed=1
        ).run(requests)
        assert margined.metrics().total_energy_j > baseline.metrics().total_energy_j

    def test_adaptive_beats_static_under_drift(self):
        requests = _requests(count=500)
        horizon = max(r.arrival_time_s for r in requests)
        energies = {}
        for mode in ("static", "adaptive", "oracle"):
            drift = make_drift_model(
                "aging", 12, seed=np.random.SeedSequence(5), timescale_s=horizon
            )
            controller = AdaptiveEccController(
                margins=margin_levels(drift.worst_case_multiplier), mode=mode
            )
            result = NetworkSimulator(
                seed=np.random.SeedSequence(11),
                dynamics=drift,
                controller=controller,
                telemetry_seed=np.random.SeedSequence(13),
            ).run(requests)
            energies[mode] = result.metrics().total_energy_j
        assert energies["adaptive"] < energies["static"]
        assert energies["oracle"] < energies["static"]

    def test_switch_latency_blocks_the_channel(self):
        """A freshly switched channel cannot start a transfer mid-reconfig."""
        controller = AdaptiveEccController(
            margins=[1.0, 2.0], mode="oracle", switch_latency_s=5e-6
        )
        drift = make_drift_model(
            "aging", 12, seed=1, worst_case_multiplier=2.0, timescale_s=1e-7
        )
        requests = _requests(count=120)
        with_latency = NetworkSimulator(
            seed=np.random.SeedSequence(2), dynamics=drift, controller=controller
        ).run(requests)
        assert with_latency.configuration_switches > 0
        fast_controller = AdaptiveEccController(
            margins=[1.0, 2.0], mode="oracle", switch_latency_s=0.0
        )
        drift2 = make_drift_model(
            "aging", 12, seed=1, worst_case_multiplier=2.0, timescale_s=1e-7
        )
        without_latency = NetworkSimulator(
            seed=np.random.SeedSequence(2), dynamics=drift2, controller=fast_controller
        ).run(requests)
        assert (
            with_latency.metrics().latency.mean_s
            > without_latency.metrics().latency.mean_s
        )

    def test_run_totals_charge_each_switch_once(self):
        requests = _requests(count=200)
        horizon = max(r.arrival_time_s for r in requests)
        drift = make_drift_model("thermal", 12, seed=4, timescale_s=horizon)
        controller = AdaptiveEccController(
            margins=margin_levels(drift.worst_case_multiplier), mode="oracle"
        )
        result = NetworkSimulator(
            seed=np.random.SeedSequence(6), dynamics=drift, controller=controller
        ).run(requests)
        assert result.configuration_switches == controller.switch_count > 0
        assert result.reconfiguration_energy_j == pytest.approx(
            result.configuration_switches * controller.switch_energy_j, rel=1e-12
        )
        # Switch energy reaches the reports through the run's total energy.
        completed = [record for record in result.records if not record.rejected]
        metrics = result.metrics()
        assert metrics.reconfiguration_energy_j == result.reconfiguration_energy_j
        assert metrics.total_energy_j == pytest.approx(
            sum(record.energy_j for record in completed)
            + result.reconfiguration_energy_j,
            rel=1e-12,
        )

    @pytest.mark.parametrize("case", ["oracle-drift", "adaptive-drift", "ladder-faults"])
    def test_controller_switches_add_up_to_configuration_switches(self, case):
        """Every switch the engine triggers is one the controller reports."""
        requests = _requests(count=300)
        horizon = max(r.arrival_time_s for r in requests)
        kwargs = {}
        if case == "ladder-faults":
            kwargs["failures"] = make_fault_model(
                "mixed",
                DEFAULT_CONFIG.num_onis,
                DEFAULT_CONFIG.num_wavelengths,
                seed=5,
                horizon_s=horizon,
            )
            margins = margin_levels(max(kwargs["failures"].worst_case_penalty, 8.0))
            kwargs["degradation"] = DegradationLadder(
                margins=margins, num_wavelengths=DEFAULT_CONFIG.num_wavelengths
            )
            kwargs["retry_backoff_s"] = 0.01 * horizon
            kwargs["transfer_timeout_s"] = 0.5 * horizon
            mode = "adaptive"
        else:
            kwargs["dynamics"] = make_drift_model(
                "thermal", 12, seed=4, worst_case_multiplier=16.0, timescale_s=horizon
            )
            margins = margin_levels(16.0)
            mode = case.split("-")[0]
        controller = AdaptiveEccController(margins=margins, mode=mode)
        switches = {"margin_for": 0, "observe": 0, "force_margin": 0}

        def counting(name):
            method = getattr(controller, name)

            def wrapper(*args, **kw):
                before = controller.switch_count
                outcome = method(*args, **kw)
                switches[name] += controller.switch_count - before
                return outcome

            return wrapper

        for name in switches:
            setattr(controller, name, counting(name))
        result = NetworkSimulator(
            seed=np.random.SeedSequence(6),
            controller=controller,
            telemetry_seed=99,
            **kwargs,
        ).run(requests)
        assert result.configuration_switches > 0
        assert sum(switches.values()) == result.configuration_switches
        expected_source = {
            "oracle-drift": "margin_for",
            "adaptive-drift": "observe",
            "ladder-faults": "force_margin",
        }[case]
        assert switches[expected_source] > 0
