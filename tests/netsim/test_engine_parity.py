"""Differential parity harness: epoch-batched engine vs the reference loop.

The batched engine (:mod:`repro.netsim.epoch`) claims *byte-identical*
results to the reference per-event loop — same records, same metrics, same
interval traces, same event counts — across every feature that rides the
hot path: fault timelines with the degradation ladder, channel drift with
static/adaptive/oracle controllers, ARQ backoff and timeouts, and both
outcome modes.  This suite is the proof: every test runs the identical
workload through both engines (freshly built models on each side, same
seeds everywhere) and asserts equality of everything a
:class:`~repro.netsim.engine.NetworkResult` exposes.

The default grid keeps tier-1 fast; set ``REPRO_PARITY_LONG=1`` to sweep
the full fault x drift x policy x load x seed cross-product.
"""

from __future__ import annotations

import os
from itertools import product

import pytest

from repro.config import DEFAULT_CONFIG
from repro.manager.policies import (
    DeadlineConstrainedPolicy,
    DegradationLadder,
    margin_levels,
)
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model
from repro.netsim.failures import FAULT_SCENARIOS, ChannelFaultTimeline, HardFaultModel
from repro.traffic.generators import UniformTrafficGenerator

NUM_ONIS = DEFAULT_CONFIG.num_onis
NW = DEFAULT_CONFIG.num_wavelengths

DRIFT_PROFILES = ("thermal", "aging", "random-walk")
POLICIES = (None, "static", "adaptive", "oracle")

RESULT_FIELDS = (
    "records",
    "busy_s_by_reader",
    "grant_counts_by_reader",
    "num_channels",
    "events_processed",
    "configuration_switches",
    "reconfiguration_energy_j",
    "interval_trace",
    "channel_downtime_s",
    "fault_transitions",
    "recoveries",
    "recovery_time_s",
    "fault_horizon_s",
)


def _requests(count=200, seed=1, payload_bits=None):
    kwargs = {} if payload_bits is None else {"payload_bits": payload_bits}
    generator = UniformTrafficGenerator(
        NUM_ONIS, mean_request_rate_hz=5e8, seed=seed, **kwargs
    )
    return list(generator.generate(count))


def assert_identical(reference, batched) -> None:
    """Every observable of the two results must be equal, byte for byte."""
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(batched, field), field
    assert reference.metrics().as_dict() == batched.metrics().as_dict()


def run_both(requests, *, scenario=None, drift=None, policy=None, policy_obj=None, **sim_kwargs):
    """Run the workload through both engines with freshly built models.

    Fault models, drift processes and controllers are rebuilt per engine
    from the same seeds, so neither run can leak state into the other.
    ``policy`` selects a controller mode; ``policy_obj`` is a manager
    selection policy passed straight through.
    """
    horizon = max(r.arrival_time_s for r in requests)
    results = {}
    for engine in ("reference", "batched"):
        kwargs = dict(sim_kwargs)
        if policy_obj is not None:
            kwargs["policy"] = policy_obj
        if scenario is not None:
            failures = make_fault_model(scenario, NUM_ONIS, NW, seed=5, horizon_s=horizon)
            if failures is not None:
                kwargs["failures"] = failures
                kwargs["degradation"] = DegradationLadder(
                    margins=margin_levels(4.0), num_wavelengths=NW
                )
        if drift is not None:
            kwargs["dynamics"] = make_drift_model(drift, NUM_ONIS, seed=17)
        if policy is not None:
            kwargs["controller"] = AdaptiveEccController(
                margins=margin_levels(4.0), mode=policy
            )
            kwargs["telemetry_seed"] = 99
        results[engine] = NetworkSimulator(seed=11, engine=engine, **kwargs).run(
            iter(requests)
        )
    assert_identical(results["reference"], results["batched"])
    return results["reference"]


class TestStaticPathParity:
    """The fast path: plain probabilistic runs, retries, rejects, traces."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plain_run(self, seed):
        run_both(_requests(count=300, seed=seed))

    @pytest.mark.parametrize("payload_bits", [512, 4096, 65536])
    def test_payload_sizes(self, payload_bits):
        run_both(_requests(count=120, seed=4, payload_bits=payload_bits))

    def test_backoff_and_timeout(self):
        requests = _requests(count=200, seed=6)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )

    def test_interval_trace(self):
        requests = _requests(count=200, seed=7)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(requests, trace_interval_s=horizon / 16)
        assert result.interval_trace  # the comparison actually saw a trace

    def test_crc_free_single_shot(self):
        run_both(_requests(count=150, seed=8), crc=None, max_retries=0)

    def test_rejected_requests(self):
        """An infeasible policy produces identical rejected records."""
        result = run_both(
            _requests(count=80, seed=9),
            policy_obj=DeadlineConstrainedPolicy(max_communication_time=0.5),
            crc=None,
            max_retries=0,
        )
        assert all(record.rejected for record in result.records)

    def test_bit_exact_mode(self):
        run_both(
            _requests(count=30, seed=10, payload_bits=2048),
            mode="bit-exact",
            crc=None,
            max_retries=0,
        )


class TestFaultScenarioParity:
    """All six fault scenarios, with ladder + backoff + timeout riding along."""

    @pytest.mark.parametrize("scenario", FAULT_SCENARIOS)
    def test_scenario(self, scenario):
        requests = _requests(count=200, seed=1)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            scenario=scenario,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )


class TestDriftAndPolicyParity:
    """Every drift process under every controller policy (and none)."""

    @pytest.mark.parametrize(
        "drift,policy", list(product(DRIFT_PROFILES, POLICIES))
    )
    def test_drift_policy(self, drift, policy):
        run_both(_requests(count=150, seed=2), drift=drift, policy=policy)

    def test_adaptive_controller_switches(self):
        """Enough traffic that monitor windows close and levels switch."""
        result = run_both(
            _requests(count=400, seed=2), drift="thermal", policy="adaptive"
        )
        assert result.configuration_switches > 0


class TestLadderMemoParity:
    """The batched engine replays ladder answers per (target, margin, health).

    Every cached answer — a configuration, a channel declared down, an
    infeasible request — must reproduce the reference engine's records.
    """

    def test_mixed_faults_adaptive_ladder(self):
        """The shape of the benchmark's faulted leg: faults, controller, ladder."""
        requests = _requests(count=300, seed=3)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(
            requests,
            scenario="mixed",
            policy="adaptive",
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon / 2,
        )
        assert result.fault_transitions > 0

    def test_failed_lane_drops_repeated_arrivals(self):
        """Arrivals at a hard-failed lane replay the cached "down" answer."""
        requests = _requests(count=300, seed=4)
        horizon = max(r.arrival_time_s for r in requests)
        failed = {2, 7}
        # Both engines may share these: health queries and the ladder are
        # pure, so neither run can leak state into the other.
        failures = HardFaultModel(
            [
                ChannelFaultTimeline(
                    NW, fail_time_s=horizon / 4 if channel in failed else None
                )
                for channel in range(NUM_ONIS)
            ]
        )
        result = run_both(
            requests,
            failures=failures,
            degradation=DegradationLadder(margins=margin_levels(4.0), num_wavelengths=NW),
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )
        dropped_on_arrival = [
            record
            for record in result.records
            if record.attempts == 0 and not record.rejected
        ]
        assert {record.destination for record in dropped_on_arrival} == failed
        assert len(dropped_on_arrival) > len(failed)

    def test_infeasible_policy_under_faults(self):
        """InfeasibleDesignError raised on the ladder path, then replayed."""
        requests = _requests(count=200, seed=5)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(
            requests,
            scenario="mixed",
            policy_obj=DeadlineConstrainedPolicy(max_communication_time=0.5),
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
        )
        rejected = sum(record.rejected for record in result.records)
        assert rejected > 1
        assert all(record.attempts == 0 for record in result.records)


class TestLoadParity:
    """Load changes the retry/queueing mix; parity must not care."""

    @pytest.mark.parametrize("count,seed", [(60, 1), (400, 2)])
    def test_loads(self, count, seed):
        run_both(_requests(count=count, seed=seed))


class TestInstrumentedParity:
    """Observability on changes nothing a NetworkResult exposes."""

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_tracing_and_metrics_leave_results_identical(self, engine):
        import io

        from repro.obs import metrics as obs_metrics
        from repro.obs import tracing as obs_tracing

        requests = _requests(count=150, seed=8)
        horizon = max(r.arrival_time_s for r in requests)
        kwargs = dict(retry_backoff_s=horizon / 100, transfer_timeout_s=horizon)
        plain = NetworkSimulator(seed=11, engine=engine, **kwargs).run(iter(requests))
        sink = io.StringIO()
        with obs_metrics.collecting() as registry, obs_tracing.tracing_to(sink):
            instrumented = NetworkSimulator(seed=11, engine=engine, **kwargs).run(
                iter(requests)
            )
            snapshot = registry.snapshot()
        assert_identical(plain, instrumented)
        assert sink.getvalue()  # spans actually flowed
        counters = snapshot["counters"]
        assert counters["netsim.events.total"] == plain.events_processed
        assert counters["netsim.events.total"] == (
            counters["netsim.events.arrival"]
            + counters["netsim.events.departure"]
            + counters["netsim.events.link_fault"]
            + counters["netsim.events.retry"]
        )
        assert counters["netsim.transfers.total"] == len(plain.records)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_both_engines_publish_identical_metrics(self, faulted):
        from repro.obs import metrics as obs_metrics

        requests = _requests(count=150, seed=9)
        horizon = max(r.arrival_time_s for r in requests)
        snapshots = {}
        for engine in ("reference", "batched"):
            kwargs = {}
            if faulted:
                kwargs = dict(
                    failures=make_fault_model(
                        "mixed", NUM_ONIS, NW, seed=5, horizon_s=horizon
                    ),
                    degradation=DegradationLadder(
                        margins=margin_levels(4.0), num_wavelengths=NW
                    ),
                    retry_backoff_s=horizon / 100,
                    transfer_timeout_s=horizon,
                )
            with obs_metrics.collecting() as registry:
                NetworkSimulator(seed=11, engine=engine, **kwargs).run(iter(requests))
                snapshots[engine] = registry.snapshot()
        # Engine-internal by design: the manager's configure.calls and
        # candidate-cache counters (the reference loop asks the manager per
        # transfer, the batched loop memoizes its answers per run) and the
        # epoch-flush counter.  Every *simulation observable* — netsim
        # counters, gauges, histograms — must agree, and so must the
        # degradation ladder's per-arrival counters, which the batched
        # engine republishes on every memo hit.
        def observable(snapshot):
            return {
                "counters": {
                    name: value
                    for name, value in snapshot["counters"].items()
                    if (
                        name.startswith("netsim.")
                        and name != "netsim.epoch.flushes"
                    )
                    or name == "manager.configure_degraded.calls"
                    or name.startswith("manager.degradation.rung.")
                },
                "gauges": snapshot["gauges"],
                "histograms": snapshot["histograms"],
            }

        reference = observable(snapshots["reference"])
        assert reference == observable(snapshots["batched"])
        if faulted:
            counters = reference["counters"]
            assert counters["manager.configure_degraded.calls"] == len(requests)
            assert any(name.startswith("manager.degradation.rung.") for name in counters)


class TestOrchestratedParity:
    """Engine parity survives the sweep orchestrator at any worker count."""

    OPTIONS = {
        "patterns": ["uniform", "hotspot"],
        "loads": [0.25, 0.7],
        "policies": ["min-power"],
        "num_requests": 120,
        "payload_bits": 2048,
        "seed": 5,
        "rings": 2,
    }

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_batched_jobs_match_reference_serial(self, jobs):
        from repro.experiments.orchestrator import run_experiment
        from repro.experiments.report import rows_to_csv

        reference = run_experiment(
            "network", options={**self.OPTIONS, "engine": "reference"}
        )
        batched = run_experiment(
            "network", options={**self.OPTIONS, "engine": "batched"}, jobs=jobs
        )
        assert reference[0] == batched[0]
        assert rows_to_csv(reference[1]) == rows_to_csv(batched[1])


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_LONG"),
    reason="set REPRO_PARITY_LONG=1 for the full parity cross-product",
)
class TestLongGridParity:
    """The full cross-product; minutes, not seconds — opt-in via env var."""

    @pytest.mark.parametrize(
        "scenario,policy,seed",
        list(product(FAULT_SCENARIOS, POLICIES, (1, 5))),
    )
    def test_faults_cross_policies(self, scenario, policy, seed):
        requests = _requests(count=250, seed=seed)
        horizon = max(r.arrival_time_s for r in requests)
        run_both(
            requests,
            scenario=scenario,
            policy=policy,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
            trace_interval_s=horizon / 8,
        )

    @pytest.mark.parametrize(
        "drift,policy,count",
        list(product(DRIFT_PROFILES, POLICIES, (100, 500))),
    )
    def test_drift_cross_policies(self, drift, policy, count):
        run_both(_requests(count=count, seed=3), drift=drift, policy=policy)
