"""Differential parity harness: ``NetworkSimulator.run`` vs the test oracle.

The simulator's epoch-batched event core (:mod:`repro.netsim.epoch`) claims
*byte-identical* results to the per-event heap loop of :mod:`oracle` —
same records, same metrics, same interval traces, same event counts —
across every feature that rides the hot path: fault timelines with the
degradation ladder, channel drift with static/adaptive/oracle controllers,
ARQ backoff and timeouts, and both outcome modes.  This suite is the
proof: every test runs the identical workload through both backends
(freshly built models on each side, same seeds everywhere) and asserts
equality of everything a :class:`~repro.netsim.engine.NetworkResult`
exposes.

Every grid here, the full fault x drift x policy cross-product included,
runs in tier-1.
"""

from __future__ import annotations

from itertools import product

import pytest
from oracle import BACKENDS, run_reference

from repro.coding.hamming import HammingCode
from repro.config import DEFAULT_CONFIG
from repro.exceptions import SimulationError
from repro.manager.manager import OpticalLinkManager
from repro.manager.policies import (
    DeadlineConstrainedPolicy,
    DegradationLadder,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
    margin_levels,
)
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model
from repro.netsim.failures import FAULT_SCENARIOS, ChannelFaultTimeline, HardFaultModel
from repro.traffic.generators import (
    BurstyTrafficGenerator,
    TrafficRequest,
    UniformTrafficGenerator,
)

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


def _bursty_requests(count=200, seed=1, target_ber=1e-6):
    """Variable-payload traffic: every request a different frame size."""
    generator = BurstyTrafficGenerator(
        NUM_ONIS,
        mean_request_rate_hz=5e7,
        frame_bits=4096,
        target_ber=target_ber,
        seed=seed,
    )
    return list(generator.generate(count))


def assert_identical(reference, batched) -> None:
    """Every observable of the two results must be equal, byte for byte."""
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(batched, field), field
    assert reference.metrics().as_dict() == batched.metrics().as_dict()


def run_both(requests, *, scenario=None, drift=None, policy=None, policy_obj=None, **sim_kwargs):
    """Run the workload through both backends with freshly built models.

    Fault models, drift processes and controllers are rebuilt per backend
    from the same seeds, so neither run can leak state into the other.
    ``policy`` selects a controller mode; ``policy_obj`` is a manager
    selection policy passed straight through.
    """
    horizon = max(r.arrival_time_s for r in requests)
    results = {}
    for name, backend in BACKENDS.items():
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
        results[name] = backend(NetworkSimulator(seed=11, **kwargs), iter(requests))
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


class TestDecisionMemoParity:
    """The fast path replays one manager decision per target BER.

    Bursty traffic changes its payload on every request, so only the
    per-target decision memo — not the (target, payload) entry memo —
    keeps the manager out of the loop; the per-payload fields must still
    come out exactly as a fresh ``configure`` would give them.
    """

    POLICIES = {
        "min-power": MinimumPowerPolicy,
        "min-energy": MinimumEnergyPolicy,
        "deadline-0.5": lambda: DeadlineConstrainedPolicy(max_communication_time=0.5),
    }

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bursty_traffic(self, policy):
        requests = _bursty_requests(count=300, seed=3)
        assert len({r.payload_bits for r in requests}) > 100
        result = run_both(requests, policy_obj=self.POLICIES[policy]())
        assert all(record.rejected for record in result.records) == (
            policy == "deadline-0.5"
        )

    def test_bursty_traffic_with_two_targets(self):
        requests = sorted(
            _bursty_requests(count=150, seed=4, target_ber=1e-6)
            + _bursty_requests(count=150, seed=5, target_ber=1e-12),
            key=lambda r: r.arrival_time_s,
        )
        result = run_both(requests, retry_backoff_s=1e-7, transfer_timeout_s=1e-5)
        assert not any(record.rejected for record in result.records)

    @pytest.mark.parametrize(
        "kind", ["self-loop", "destination-out-of-range", "negative-source"]
    )
    @pytest.mark.parametrize("payload", ["seen", "new"])
    def test_suspect_request_after_warm_memo(self, kind, payload):
        """A suspect arrival fails exactly as in the oracle.

        ``seen`` reuses an earlier payload (both memos warm); ``new`` has a
        payload no earlier request had (entry memo cold, decision memo
        warm).
        """
        requests = _bursty_requests(count=120, seed=6)
        sizes = {r.payload_bits for r in requests[:60]}
        bits = requests[10].payload_bits if payload == "seen" else max(sizes) + 1
        suspect = TrafficRequest(requests[60].arrival_time_s, 1, 0, bits, 1e-6)
        if kind == "self-loop":
            # TrafficRequest refuses this itself; force it past the check
            # the way a hand-built request stream could.
            object.__setattr__(suspect, "destination", suspect.source)
        elif kind == "destination-out-of-range":
            object.__setattr__(suspect, "destination", NUM_ONIS)
        else:
            object.__setattr__(suspect, "source", -1)
        requests.insert(61, suspect)
        messages = {}
        for name, backend in BACKENDS.items():
            with pytest.raises(SimulationError) as raised:
                backend(NetworkSimulator(seed=11), iter(requests))
            messages[name] = str(raised.value)
        assert messages["reference"] == messages["batched"]
        assert "ARRIVAL handler failed" in messages["batched"]

    def test_configure_called_once_per_target(self):
        from repro.obs import metrics as obs_metrics

        requests = sorted(
            _bursty_requests(count=200, seed=7, target_ber=1e-6)
            + _bursty_requests(count=200, seed=8, target_ber=1e-9)
            + _bursty_requests(count=200, seed=9, target_ber=1e-12),
            key=lambda r: r.arrival_time_s,
        )
        assert len({(r.target_ber, r.payload_bits) for r in requests}) > 300
        calls = {}
        for name, backend in BACKENDS.items():
            with obs_metrics.collecting() as registry:
                backend(NetworkSimulator(seed=11), iter(requests))
                calls[name] = registry.snapshot()["counters"][
                    "manager.configure.calls"
                ]
        assert calls == {"reference": len(requests), "batched": 3}


class TestTracedParity:
    """Runs with an interval trace charge it inline in the one event loop."""

    def test_adaptive_drift_trace(self):
        requests = _requests(count=400, seed=2)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(
            requests,
            drift="thermal",
            policy="adaptive",
            trace_interval_s=horizon / 16,
        )
        assert result.configuration_switches > 0
        assert sum(row.switches for row in result.interval_trace) > 0
        assert sum(row.transfers_completed for row in result.interval_trace) == len(
            result.records
        )

    @pytest.mark.parametrize("policy", ["static", "oracle"])
    def test_bursty_drift_trace_with_retries(self, policy):
        requests = _bursty_requests(count=250, seed=10)
        horizon = max(r.arrival_time_s for r in requests)
        result = run_both(
            requests,
            drift="random-walk",
            policy=policy,
            retry_backoff_s=horizon / 100,
            transfer_timeout_s=horizon,
            trace_interval_s=horizon / 7,
        )
        assert result.interval_trace


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
    """The batched core replays ladder answers per (target, margin, health).

    Every cached answer — a configuration, a channel declared down, an
    infeasible request — must reproduce the oracle's records.
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
        # Both backends may share these: health queries and the ladder are
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


class TestTieParity:
    """A departure at the same instant as an arrival pops after it.

    Static events (arrivals) carry smaller sequence numbers than every
    dynamic one (departures, retries), so at equal times the arrival is
    handled first.  One writer streams back to back into one reader, each
    arrival landing exactly on the previous transfer's departure, over a
    link noisy enough that most transfers retry: whichever event pops first
    takes the channel next, so a flipped tie-break changes the records.
    """

    @staticmethod
    def _simulator(**kwargs):
        return NetworkSimulator(
            manager=OpticalLinkManager(codes=[HammingCode(3)]),
            packet_bits=64,
            seed=11,
            **kwargs,
        )

    @pytest.mark.parametrize("trace", ["untraced", "traced"])
    def test_departures_tied_with_arrivals(self, trace):
        # Writer 1 holds the token of reader 0 from the start, so an attempt
        # arriving at t on an idle channel departs at exactly t + duration.
        probe = self._simulator(max_retries=0).run(
            [TrafficRequest(0.0, 1, 0, 512, 1e-2)]
        )
        duration_s = probe.records[0].completion_time_s
        requests, arrival_s = [], 0.0
        for _ in range(150):
            requests.append(TrafficRequest(arrival_s, 1, 0, 512, 1e-2))
            arrival_s += duration_s
        # An interval trace charges every departure to its bucket as well.
        kwargs = {"trace_interval_s": 10 * duration_s} if trace == "traced" else {}
        results = {
            name: backend(self._simulator(max_retries=6, **kwargs), iter(requests))
            for name, backend in BACKENDS.items()
        }
        assert_identical(results["reference"], results["batched"])
        records = results["batched"].records
        assert sum(record.attempts > 1 for record in records) > len(records) // 4


class TestLoadParity:
    """Load changes the retry/queueing mix; parity must not care."""

    @pytest.mark.parametrize("count,seed", [(60, 1), (400, 2)])
    def test_loads(self, count, seed):
        run_both(_requests(count=count, seed=seed))


class TestInstrumentedParity:
    """Observability on changes nothing a NetworkResult exposes."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_tracing_and_metrics_leave_results_identical(self, backend):
        import io

        from repro.obs import metrics as obs_metrics
        from repro.obs import tracing as obs_tracing

        requests = _requests(count=150, seed=8)
        horizon = max(r.arrival_time_s for r in requests)
        kwargs = dict(retry_backoff_s=horizon / 100, transfer_timeout_s=horizon)
        run = BACKENDS[backend]
        plain = run(NetworkSimulator(seed=11, **kwargs), iter(requests))
        sink = io.StringIO()
        with obs_metrics.collecting() as registry, obs_tracing.tracing_to(sink):
            instrumented = run(NetworkSimulator(seed=11, **kwargs), iter(requests))
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
        for name, backend in BACKENDS.items():
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
                backend(NetworkSimulator(seed=11, **kwargs), iter(requests))
                snapshots[name] = registry.snapshot()
        # Backend-internal by design: the manager's configure.calls and
        # candidate-cache counters (the oracle asks the manager per
        # transfer, the batched loop memoizes its answers per run) and the
        # epoch-flush counter.  Every *simulation observable* — netsim
        # counters, gauges, histograms — must agree, and so must the
        # degradation ladder's per-arrival counters, which the batched
        # core republishes on every memo hit.
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
    """Parity survives the sweep orchestrator at any worker count.

    The oracle's report comes from a serial, in-process sweep with the
    simulator's ``run`` swapped for :func:`run_reference`; the batched
    report from an ordinary sweep, pooled or not.
    """

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
    def test_batched_jobs_match_reference_serial(self, jobs, monkeypatch):
        from repro.experiments.orchestrator import run_experiment
        from repro.experiments.report import rows_to_csv

        with monkeypatch.context() as patched:
            patched.setattr(NetworkSimulator, "run", run_reference)
            reference = run_experiment("network", options=self.OPTIONS)
        batched = run_experiment("network", options=self.OPTIONS, jobs=jobs)
        assert reference[0] == batched[0]
        assert rows_to_csv(reference[1]) == rows_to_csv(batched[1])


class TestLongGridParity:
    """The full fault x policy x trace and drift x policy cross-products."""

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
