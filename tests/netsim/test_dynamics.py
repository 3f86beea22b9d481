"""Drift-model tests: shapes, determinism and regression pins."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.netsim.dynamics import (
    AgingRampDrift,
    ChannelDriftModel,
    DriftProcess,
    RandomWalkDrift,
    ThermalSinusoidDrift,
    make_drift_model,
)


class _FixedDrift(DriftProcess):
    """A channel held at a multiplier of 3 at all times."""

    worst_case_multiplier = 3.0

    def multiplier_at(self, time_s: float) -> float:
        return 3.0


class TestProcessShapes:
    def test_thermal_sinusoid_bounds_and_shape(self):
        process = ThermalSinusoidDrift(period_s=1.0, peak_multiplier=16.0)
        assert process.multiplier_at(0.0) == pytest.approx(1.0)
        assert process.multiplier_at(0.5) == pytest.approx(16.0)
        assert process.multiplier_at(1.0) == pytest.approx(1.0)
        # Quarter period sits at the log-space midpoint.
        assert process.multiplier_at(0.25) == pytest.approx(4.0)
        times = np.linspace(0.0, 3.0, 301)
        values = [process.multiplier_at(t) for t in times]
        assert min(values) >= 1.0 - 1e-12
        assert max(values) <= 16.0 + 1e-12

    def test_thermal_phase_shifts_the_peak(self):
        process = ThermalSinusoidDrift(
            period_s=1.0, peak_multiplier=4.0, phase_rad=math.pi
        )
        assert process.multiplier_at(0.0) == pytest.approx(4.0)

    def test_aging_ramp_monotone(self):
        process = AgingRampDrift(ramp_multiplier=16.0, ramp_time_s=4.0)
        assert process.multiplier_at(0.0) == pytest.approx(1.0)
        assert process.multiplier_at(2.0) == pytest.approx(4.0)
        assert process.multiplier_at(4.0) == pytest.approx(16.0)
        assert process.multiplier_at(100.0) == pytest.approx(16.0)  # saturates
        values = [process.multiplier_at(t) for t in np.linspace(0, 5, 100)]
        assert values == sorted(values)

    def test_random_walk_stays_in_range(self):
        process = RandomWalkDrift(step_s=0.01, max_multiplier=8.0, seed=1)
        values = [process.multiplier_at(t) for t in np.linspace(0.0, 5.0, 400)]
        assert min(values) >= 1.0 - 1e-12
        assert max(values) <= 8.0 + 1e-12
        assert len(set(round(v, 9) for v in values)) > 10  # it actually moves

    def test_random_walk_query_order_independent(self):
        forward = RandomWalkDrift(step_s=0.01, max_multiplier=8.0, seed=5)
        backward = RandomWalkDrift(step_s=0.01, max_multiplier=8.0, seed=5)
        times = list(np.linspace(0.0, 2.0, 50))
        values_forward = [forward.multiplier_at(t) for t in times]
        values_backward = [backward.multiplier_at(t) for t in reversed(times)]
        assert values_forward == list(reversed(values_backward))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThermalSinusoidDrift(period_s=0.0, peak_multiplier=2.0)
        with pytest.raises(ConfigurationError):
            AgingRampDrift(ramp_multiplier=0.9, ramp_time_s=1.0)
        with pytest.raises(ConfigurationError):
            RandomWalkDrift(step_s=-1.0, max_multiplier=2.0, seed=0)
        with pytest.raises(ConfigurationError):
            RandomWalkDrift(step_s=1.0, max_multiplier=2.0, seed=0).multiplier_at(-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: ThermalSinusoidDrift(period_s=v, peak_multiplier=2.0),
            lambda v: ThermalSinusoidDrift(period_s=1.0, peak_multiplier=v),
            lambda v: ThermalSinusoidDrift(period_s=1.0, peak_multiplier=2.0, phase_rad=v),
            lambda v: AgingRampDrift(ramp_multiplier=v, ramp_time_s=1.0),
            lambda v: AgingRampDrift(ramp_multiplier=2.0, ramp_time_s=v),
            lambda v: RandomWalkDrift(step_s=v, max_multiplier=2.0, seed=0),
            lambda v: RandomWalkDrift(step_s=1.0, max_multiplier=v, seed=0),
        ],
        ids=[
            "thermal-period",
            "thermal-peak",
            "thermal-phase",
            "aging-ramp",
            "aging-ramp-time",
            "walk-step",
            "walk-max",
        ],
    )
    def test_non_finite_parameters_are_rejected(self, build, value):
        # Each used to construct: a NaN multiplier, or drift silently off.
        with pytest.raises(ConfigurationError):
            build(value)

    @pytest.mark.parametrize("profile", ["thermal", "aging", "random-walk"])
    @pytest.mark.parametrize("timescale_s", [math.nan, math.inf])
    def test_non_finite_timescale_is_rejected(self, profile, timescale_s):
        # A NaN aging timescale reported a multiplier of 1.0 at every time.
        with pytest.raises(ConfigurationError):
            make_drift_model(profile, 2, seed=0, timescale_s=timescale_s)


class TestChannelDriftModel:
    def test_per_channel_processes_are_independent(self):
        model = make_drift_model(
            "random-walk", 4, seed=7, worst_case_multiplier=8.0, timescale_s=1.0
        )
        series = [
            tuple(model.multiplier(channel, t) for t in np.linspace(0, 0.5, 20))
            for channel in range(4)
        ]
        assert len(set(series)) == 4  # different trajectories per channel

    def test_quantization_is_log2_grid(self):
        model = ChannelDriftModel(
            lambda channel, seq: _FixedDrift(),
            2,
            seed=0,
        )
        value = model.multiplier(0, 0.0)
        assert value == 2.0 ** (round(math.log2(3.0) * 16) / 16)
        assert model.multiplier(1, 5.0) == value

    def test_nominal_multiplier_is_exact_one(self):
        model = ChannelDriftModel(
            lambda channel, seq: ThermalSinusoidDrift(period_s=1.0, peak_multiplier=4.0),
            1,
            seed=0,
        )
        assert model.multiplier(0, 0.0) == 1.0

    def test_quantized_never_exceeds_worst_case(self):
        model = ChannelDriftModel(
            lambda channel, seq: ThermalSinusoidDrift(period_s=1.0, peak_multiplier=3.0),
            1,
            seed=0,
        )
        values = [model.multiplier(0, t) for t in np.linspace(0, 1, 101)]
        assert max(values) <= 3.0

    @pytest.mark.parametrize("channel", [-1, 2])
    def test_channel_outside_the_model_rejected(self, channel):
        model = make_drift_model("thermal", 2, seed=0, timescale_s=1.0)
        with pytest.raises(ConfigurationError):
            model.multiplier(channel, 0.25)
        with pytest.raises(ConfigurationError):
            model.process(channel)
        with pytest.raises(ConfigurationError):
            model.multiplier_lookup(channel)

    @pytest.mark.parametrize("profile", ["thermal", "aging", "random-walk"])
    @pytest.mark.parametrize("time_s", [-1.0, float("nan"), float("inf")])
    def test_invalid_times_rejected(self, profile, time_s):
        model = make_drift_model(profile, 2, seed=0, timescale_s=1.0)
        with pytest.raises(ConfigurationError):
            model.multiplier(0, time_s)
        with pytest.raises(ConfigurationError):
            model.multiplier_lookup(0)(time_s)

    @pytest.mark.parametrize("profile", ["thermal", "aging", "random-walk"])
    def test_lookup_is_the_quantised_multiplier(self, profile):
        model = make_drift_model(profile, 3, seed=4, timescale_s=1.0)
        for channel in range(3):
            lookup = model.multiplier_lookup(channel)
            process = model.process(channel)
            for t in np.linspace(0.0, 1.0, 41):
                raw = process.multiplier_at(t)
                expected = (
                    1.0
                    if raw <= 1.0
                    else min(
                        2.0 ** (round(math.log2(raw) * 16) / 16),
                        model.worst_case_multiplier,
                    )
                )
                assert lookup(t) == expected == model.multiplier(channel, t)

    def test_make_drift_model_profiles(self):
        assert make_drift_model("none", 4, seed=0) is None
        for profile in ("thermal", "aging", "random-walk"):
            model = make_drift_model(
                profile, 4, seed=0, worst_case_multiplier=8.0, timescale_s=1e-6
            )
            assert model.worst_case_multiplier == 8.0
            assert 1.0 <= model.multiplier(0, 0.0) <= 8.0
        with pytest.raises(ConfigurationError):
            make_drift_model("volcanic", 4, seed=0)


class TestRegressionPins:
    """Pin trajectories so refactors cannot silently change sweep results."""

    def test_thermal_pinned_values(self):
        process = ThermalSinusoidDrift(period_s=2e-6, peak_multiplier=16.0, phase_rad=0.3)
        assert process.multiplier_at(0.0) == pytest.approx(1.0638737983091848, rel=1e-12)
        assert process.multiplier_at(5e-7) == pytest.approx(6.025330648027039, rel=1e-12)

    def test_random_walk_pinned_values(self):
        process = RandomWalkDrift(step_s=1e-8, max_multiplier=16.0, seed=42)
        values = [process.multiplier_at(step * 1e-8) for step in (0, 1, 5, 50, 333)]
        assert values[0] == 1.0
        assert values[1] == pytest.approx(1.0542224133062486, rel=1e-12)
        assert values[2] == pytest.approx(1.1882361417249705, rel=1e-12)
        assert values[3] == pytest.approx(2.2040208642356776, rel=1e-12)
        assert values[4] == pytest.approx(1.605339529554492, rel=1e-12)

    def test_channel_model_pinned_values(self):
        model = make_drift_model(
            "thermal", 3, seed=2026, worst_case_multiplier=16.0, timescale_s=1e-6
        )
        pinned = [model.multiplier(channel, 2.5e-7) for channel in range(3)]
        assert pinned == [
            pytest.approx(10.374716437208077, rel=1e-12),
            pytest.approx(1.189207115002721, rel=1e-12),
            pytest.approx(2.5936791093020193, rel=1e-12),
        ]
