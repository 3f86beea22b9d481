"""Tests for the Pareto utilities, selection policies and the link manager."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError, InfeasibleDesignError
from repro.manager.manager import CommunicationRequest, OpticalLinkManager
from repro.manager.pareto import ParetoPoint, dominates, pareto_front
from repro.manager.policies import (
    DeadlineConstrainedPolicy,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
)


def _point(name, ct, power, ber=1e-11):
    return ParetoPoint(code_name=name, target_ber=ber, communication_time=ct, channel_power_w=power)


class TestParetoUtilities:
    def test_domination_requires_no_worse_everywhere(self):
        a = _point("a", 1.0, 0.010)
        b = _point("b", 1.5, 0.012)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_incomparable_points_do_not_dominate(self):
        fast_hungry = _point("fast", 1.0, 0.016)
        slow_lean = _point("lean", 1.75, 0.008)
        assert not dominates(fast_hungry, slow_lean)
        assert not dominates(slow_lean, fast_hungry)

    def test_identical_points_do_not_dominate_each_other(self):
        a = _point("a", 1.0, 0.01)
        b = _point("b", 1.0, 0.01)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_front_extraction(self):
        points = [
            _point("fast", 1.0, 0.016),
            _point("mid", 1.11, 0.009),
            _point("slow", 1.75, 0.008),
            _point("dominated", 1.8, 0.02),
        ]
        front = pareto_front(points)
        names = [p.code_name for p in front]
        assert names == ["fast", "mid", "slow"]

    def test_front_of_empty_cloud_is_empty(self):
        assert pareto_front([]) == []

    def test_paper_schemes_are_all_on_the_front(self):
        from repro.experiments.orchestrator import run_experiment

        _, rows = run_experiment("figure6b", options={"target_bers": [1e-10]})
        cloud = [
            _point(
                row["code"],
                row["communication_time"],
                row["channel_power_mw"] / 1e3,
                ber=row["target_ber"],
            )
            for row in rows
        ]
        front_names = {p.code_name for p in pareto_front(cloud)}
        assert front_names == {"w/o ECC", "H(71,64)", "H(7,4)"}


class TestPolicies:
    @pytest.fixture(scope="class")
    def candidates(self):
        manager = OpticalLinkManager()
        return manager.candidates_for(1e-11)

    def test_min_power_picks_the_leanest_feasible_candidate(self, candidates):
        decision = MinimumPowerPolicy().select(candidates)
        expected = min(c.total_power_w for c in candidates if c.feasible)
        assert decision.channel_power_w == pytest.approx(expected)

    def test_min_energy_picks_h7164_at_1e11(self, candidates):
        decision = MinimumEnergyPolicy().select(candidates)
        assert decision.code_name == "H(71,64)"

    def test_deadline_policy_respects_the_ct_bound(self, candidates):
        decision = DeadlineConstrainedPolicy(max_communication_time=1.2).select(candidates)
        assert decision.communication_time <= 1.2

    def test_tight_deadline_forces_uncoded(self, candidates):
        decision = DeadlineConstrainedPolicy(max_communication_time=1.0).select(candidates)
        assert decision.code_name == "w/o ECC"

    def test_impossible_deadline_raises(self, candidates):
        with pytest.raises(InfeasibleDesignError):
            DeadlineConstrainedPolicy(max_communication_time=0.5).select(candidates)

    def test_decision_carries_the_selected_breakdown(self, candidates):
        decision = MinimumPowerPolicy().select(candidates)
        best = min((c for c in candidates if c.feasible), key=lambda c: c.total_power_w)
        assert decision.breakdown is best
        assert decision.code_name == best.code_name


class TestOpticalLinkManager:
    def test_configure_returns_a_feasible_configuration(self):
        manager = OpticalLinkManager()
        request = CommunicationRequest(source=3, destination=0, target_ber=1e-11)
        configuration = manager.configure(request)
        assert configuration.code_name in {"w/o ECC", "H(71,64)", "H(7,4)"}
        assert configuration.laser_output_power_w <= DEFAULT_CONFIG.laser_max_output_power_w

    def test_default_policy_prefers_coded_low_power(self):
        manager = OpticalLinkManager()
        configuration = manager.configure(
            CommunicationRequest(source=1, destination=0, target_ber=1e-11)
        )
        assert configuration.code_name == "H(7,4)"

    def test_request_level_policy_override(self):
        manager = OpticalLinkManager()
        configuration = manager.configure(
            CommunicationRequest(
                source=1,
                destination=0,
                target_ber=1e-11,
                policy=DeadlineConstrainedPolicy(max_communication_time=1.0),
            )
        )
        assert configuration.code_name == "w/o ECC"

    def test_candidate_cache_is_reused(self):
        manager = OpticalLinkManager()
        first = manager.candidates_for(1e-9)
        second = manager.candidates_for(1e-9)
        assert first is second

    def test_invalid_endpoints_rejected(self):
        manager = OpticalLinkManager()
        with pytest.raises(ConfigurationError):
            manager.configure(CommunicationRequest(source=0, destination=99, target_ber=1e-9))

    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            CommunicationRequest(source=1, destination=1, target_ber=1e-9)
        with pytest.raises(ConfigurationError):
            CommunicationRequest(source=1, destination=0, target_ber=0.9)
        with pytest.raises(ConfigurationError):
            CommunicationRequest(source=1, destination=0, target_ber=1e-9, payload_bits=0)

