"""Transport-free tests of the HTTP route table and the load-shedding ladder.

:func:`repro.service.routes.dispatch` maps ``(method, path, query, body)``
to ``(status, payload, headers)`` without a socket, so every admission
decision — the 429/503 ladder, Retry-After hints, method/path errors — is
pinned here without starting a server.
"""

from __future__ import annotations

import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coding.registry import available_codes, get_code
from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments.gridlib import MAX_GRID_POINTS
from repro.experiments.orchestrator import describe_grid
from repro.link.design import OpticalLinkDesigner
from repro.obs.metrics import MetricsRegistry
from repro.service.models import Job, JobState
from repro.service.queue import DurableJobQueue
from repro.service import routes
from repro.service.routes import LoadShedder, ServiceContext, dispatch
from repro.service.store import ResultsStore


class _AliveSupervisor:
    """Just enough supervisor for readiness checks."""

    def is_alive(self) -> bool:
        return True


def _make_context(root, max_depth=4):
    registry = MetricsRegistry()
    queue = DurableJobQueue(str(root / "queue"), max_depth=max_depth)
    shedder = LoadShedder(queue, registry=registry)
    return ServiceContext(
        queue=queue,
        store=ResultsStore(str(root / "results")),
        supervisor=_AliveSupervisor(),
        designer=OpticalLinkDesigner(),
        config=DEFAULT_CONFIG,
        registry=registry,
        shedder=shedder,
    )


@pytest.fixture
def context(tmp_path):
    return _make_context(tmp_path)


@pytest.fixture(scope="module")
def shared_context(tmp_path_factory):
    """One context for every example of a property (never fills its queue)."""
    return _make_context(tmp_path_factory.mktemp("routes"), max_depth=1 << 20)


def _get(context, path, query=None):
    return dispatch(context, "GET", path, query or {}, None)


def _post(context, path, body=None):
    return dispatch(context, "POST", path, {}, body)


def _fill_queue(context, count):
    for index in range(count):
        context.queue.submit(
            Job(job_id=f"{index:016x}", experiment="table1", options=None)
        )


class TestRouting:
    def test_unknown_path_is_404(self, context):
        status, payload, _ = _get(context, "/nope")
        assert status == 404 and "error" in payload

    def test_wrong_method_is_405(self, context):
        status, _, _ = _post(context, "/healthz")
        assert status == 405
        status, _, _ = _get(context, "/jobs/" + "a" * 16 + "/cancel")
        assert status == 405

    def test_both_methods_of_jobs_routes(self, context):
        status, payload, _ = _get(context, "/jobs")
        assert status == 200 and payload == {"jobs": []}
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        assert status == 202

    def test_job_id_pattern_is_strict(self, context):
        status, _, _ = _get(context, "/jobs/NOT-A-FINGERPRINT")
        assert status == 404

    def test_missing_job_is_404(self, context):
        status, _, _ = _get(context, "/jobs/" + "a" * 16)
        assert status == 404


class TestValidation:
    def test_submit_needs_object_body(self, context):
        assert _post(context, "/jobs", None)[0] == 400
        assert _post(context, "/jobs", [1, 2])[0] == 400

    def test_submit_unknown_experiment_lists_available(self, context):
        status, payload, _ = _post(context, "/jobs", {"experiment": "nope"})
        assert status == 400

    def test_submit_missing_experiment_lists_available(self, context):
        status, payload, _ = _post(context, "/jobs", {})
        assert status == 400 and "available" in payload

    def test_submit_rejects_unknown_network_option(self, context):
        body = {"experiment": "network", "options": {"num_request": 150}}
        status, payload, _ = _post(context, "/jobs", body)
        assert status == 400 and "num_request" in payload["error"]
        assert context.queue.jobs() == []

    def test_submit_bounds_worker_count(self, context):
        body = {"experiment": "table1", "jobs": 99}
        assert _post(context, "/jobs", body)[0] == 400

    @pytest.mark.parametrize("workers", [True, False, 2.0])
    def test_submit_worker_count_must_be_a_json_integer(self, context, workers):
        body = {"experiment": "table1", "jobs": workers}
        status, payload, _ = _post(context, "/jobs", body)
        assert status == 400 and "jobs must be an integer" in payload["error"]
        assert context.queue.jobs() == []

    def test_design_query_validation(self, context):
        assert _get(context, "/design")[0] == 400
        assert _get(context, "/design", {"code": "h(7,4)", "target_ber": "x"})[0] == 400
        status, payload, _ = _get(
            context, "/design", {"code": "nope", "target_ber": "1e-12"}
        )
        assert status == 400 and "available" in payload

    def test_design_query_solves_then_hits_cache(self, context):
        query = {"code": "h(7,4)", "target_ber": "1e-12"}
        status, payload, _ = _get(context, "/design", query)
        assert status == 200 and payload["cached"] is False
        assert payload["point"]["feasible"] is True
        status, payload, _ = _get(context, "/design", query)
        assert status == 200 and payload["cached"] is True

    def test_result_of_unfinished_job_is_409(self, context):
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        job_id = payload["job_id"]
        status, payload, _ = _get(context, f"/jobs/{job_id}/result")
        assert status == 409 and payload["state"] == JobState.QUEUED


class TestErrorsAreClientErrors:
    """Inputs the solvers or grid builders reject answer 400, never 500."""

    _SHIPPED_EXPERIMENTS = (
        "adaptive", "availability", "calibration", "figure3", "figure4", "figure5",
        "figure6a", "figure6b", "headline", "network", "table1", "validation",
    )

    @pytest.mark.parametrize(
        "code,target",
        [
            # Too deep: the Eq. 2 objective is lost in rounding, so the
            # root search does not converge.
            ("h(7,4)", "1e-30"),
            ("h(71,64)", "1e-30"),
            ("secded(72,64)", "1e-100"),
            ("rep(3,1)", "1e-300"),
            # Too shallow: no raw BER below 0.5 reaches the target, so the
            # root cannot be bracketed.
            ("rep(3,1)", "0.49"),
            ("h(7,4)", "0.4999999"),
        ],
    )
    def test_design_target_the_inversion_cannot_solve_is_400(self, context, code, target):
        status, payload, _ = _get(context, "/design", {"code": code, "target_ber": target})
        assert status == 400
        assert "no raw BER meets target" in payload["error"]

    @pytest.mark.parametrize("code,target", [("uncoded", "1e-30"), ("bch(63,t=2)", "1e-300")])
    def test_design_deep_targets_that_solve_stay_infeasible_points(self, context, code, target):
        status, payload, _ = _get(context, "/design", {"code": code, "target_ber": target})
        assert status == 200 and payload["point"]["feasible"] is False

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        code=st.sampled_from(available_codes()),
        target=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
    )
    def test_design_status_is_200_or_400(self, shared_context, code, target):
        query = {"code": code, "target_ber": repr(target)}
        assert _get(shared_context, "/design", query)[0] in (200, 400)

    @pytest.mark.parametrize(
        "body",
        [
            {"experiment": "figure5", "options": {"target_bers": ["x"]}},
            {"experiment": "figure5", "options": {"target_bers": "abc"}},
            {"experiment": "network", "options": {"num_requests": "x"}},
        ],
    )
    def test_submit_ill_typed_option_value_is_400(self, context, body):
        status, payload, _ = _post(context, "/jobs", body)
        assert status == 400 and "invalid options" in payload["error"]
        assert context.queue.jobs() == []

    @pytest.mark.parametrize(
        "experiment, options, message",
        [
            ("network", {"patterns": ["nope"]}, "unknown traffic pattern 'nope'"),
            ("network", {"loads": [-1.0]}, "relative load must be positive and finite"),
            ("network", {"num_requests": 0}, "num_requests must be at least 1"),
            ("network", {"num_requests": 2**62}, "num_requests must be at most"),
            ("adaptive", {"loads": [-0.5]}, "relative load must be positive and finite"),
            ("availability", {"loads": [float("inf")]}, "relative load must be positive and finite"),
            ("network", {"payload_bits": 0}, "payload_bits must be at least 1"),
            ("network", {"packet_bits": 0}, "packet size must be at least one bit"),
            ("network", {"mode": "nope"}, "unknown mode 'nope'"),
            ("network", {"warmup_fraction": 1.5}, "warm-up fraction must lie in"),
            ("network", {"max_retries": -1}, "retry budget cannot be negative"),
            ("adaptive", {"payload_bits": 1 << 30}, "payload_bits must be at most"),
            ("adaptive", {"switch_latency_s": -1.0}, "switch penalties cannot be negative"),
            ("availability", {"max_derate_factor": 0.5}, "the derate cap must be at least 1"),
            ("network", {"target_ber": 1e-40}, "no raw BER meets target"),
        ],
    )
    def test_a_value_the_worker_would_reject_is_400_when_described(
        self, context, experiment, options, message
    ):
        # Accepted here, it would fail in the worker after a 202.
        with pytest.raises(ConfigurationError, match=message):
            describe_grid(experiment, options=options)
        status, payload, _ = _post(context, "/jobs", {"experiment": experiment, "options": options})
        assert status == 400 and message in payload["error"]
        assert context.queue.jobs() == []

    @pytest.mark.parametrize(
        "options",
        [
            {"rings": 10**12},
            {"loads": [0.5] * 10**5, "rings": 10**6},
            {"codes": ["h(7,4)"] * (MAX_GRID_POINTS + 1)},
        ],
    )
    def test_submit_over_the_grid_cap_is_400(self, context, options):
        experiment = "figure6a" if "codes" in options else "network"
        status, payload, _ = _post(context, "/jobs", {"experiment": experiment, "options": options})
        assert status == 400 and f"at most {MAX_GRID_POINTS}" in payload["error"]
        assert context.queue.jobs() == []

    @pytest.mark.parametrize(
        "experiment, options",
        [
            ("table1", None),
            ("figure5", {"target_bers": [1e-11, 2e-9, 3e-7], "codes": ["H(71,64)", "H(7,4)"]}),
            ("figure5", {"codes": ["w/o ECC", "h(7,4)", "BCH(63,t=2)"], "shard_size": 1}),
            ("validation", {"targets": [1e-3], "codes": ["H(7,4)"], "num_blocks": 10}),
        ],
    )
    def test_submit_accepts_the_options_a_grid_reads(self, context, experiment, options):
        status, _, _ = _post(context, "/jobs", {"experiment": experiment, "options": options})
        assert status == 202

    @pytest.mark.parametrize("experiment", _SHIPPED_EXPERIMENTS)
    def test_submit_an_option_the_grid_does_not_read_is_400(self, context, experiment):
        # Ignoring it would run the default grid under a job id of its own.
        body = {"experiment": experiment, "options": {"target_berz": 1e-9}}
        status, payload, _ = _post(context, "/jobs", body)
        assert status == 400 and "target_berz" in payload["error"]
        assert context.queue.jobs() == []

    @pytest.mark.parametrize("experiment", ["figure5", "figure6a", "figure6b", "validation"])
    @pytest.mark.parametrize("codes", [["H(7,4)", "H(8,4)"], ["nope"], "H(7,4)", [None]])
    def test_submit_an_unknown_code_is_400(self, context, experiment, codes):
        # A bare string would be read as one code name per character.
        body = {"experiment": experiment, "options": {"codes": codes}}
        assert _post(context, "/jobs", body)[0] == 400
        assert context.queue.jobs() == []

    def test_submit_figure5_shard_size_below_one_is_400(self, context):
        body = {"experiment": "figure5", "options": {"shard_size": 0}}
        status, payload, _ = _post(context, "/jobs", body)
        assert status == 400 and "shard_size" in payload["error"]

    def test_submit_at_the_grid_cap_is_accepted(self, context):
        options = {"codes": ["h(7,4)"] * MAX_GRID_POINTS}
        status, _, _ = _post(context, "/jobs", {"experiment": "figure6a", "options": options})
        assert status == 202

    # Values may be large: a grid's size grows with them (the network grid
    # has one shard per ring, and list options multiply with each other),
    # and a grid over MAX_GRID_POINTS must be a 400 built in bounded time.
    # Integers reach past every float, floats include the non-finite ones
    # JSON bodies may carry, and lists run to twice the cap.
    _SCALAR = (
        st.none()
        | st.booleans()
        | st.integers(-3, 6)
        | st.integers(-(10**400), 10**400)
        | st.floats(-10.0, 10.0, allow_nan=False)
        | st.floats()
        | st.text(max_size=4)
    )
    _LONG_LIST = st.builds(
        lambda item, count: [item] * count, _SCALAR, st.integers(0, 2 * MAX_GRID_POINTS)
    )
    _JSON = st.recursive(
        _SCALAR | _LONG_LIST,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=2),
        max_leaves=6,
    )
    _OPTION_KEYS = (
        "codes", "drifts", "loads", "mode", "num_blocks", "num_requests", "patterns",
        "policies", "rings", "scenarios", "seed", "shard_size", "target_ber",
        "target_bers", "targets", "warmup_fraction",
    )

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        # The shipped grids only: test modules register toy experiments.
        experiment=st.sampled_from(_SHIPPED_EXPERIMENTS),
        options=st.dictionaries(st.sampled_from(_OPTION_KEYS) | st.text(max_size=6), _JSON, max_size=3),
    )
    def test_submit_status_is_never_500(self, experiment, options):
        # A fresh queue per example: a repeated grid would join its job (200).
        with tempfile.TemporaryDirectory() as root:
            context = _make_context(pathlib.Path(root))
            body = {"experiment": experiment, "options": options}
            assert _post(context, "/jobs", body)[0] in (202, 400, 429)


class TestLoadSheddingLadder:
    def test_normal_below_the_shed_fraction(self, context):
        _fill_queue(context, 2)  # 2/4 < 0.75
        assert context.shedder.level() == LoadShedder.NORMAL

    def test_new_submissions_shed_first(self, context):
        _fill_queue(context, 3)  # 3/4 >= 0.75 -> SHED_SWEEPS
        assert context.shedder.level() == LoadShedder.SHED_SWEEPS
        status, payload, headers = _post(context, "/jobs", {"experiment": "table1"})
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        # joining an existing job is free even while shedding
        status, payload, _ = _get(context, "/jobs/" + "0" * 16)
        assert status == 200

    def test_full_queue_is_cached_only(self, context):
        _fill_queue(context, 4)
        assert context.shedder.level() == LoadShedder.CACHED_ONLY
        # design cache miss refused with 503 ...
        status, payload, _ = _get(
            context, "/design", {"code": "h(7,4)", "target_ber": "1e-12"}
        )
        assert status == 503 and payload["shed_level"] == "cached-only"
        # ... but a cached point is still served
        context.designer.design_point(get_code("h(7,4)"), 1e-12)
        status, payload, _ = _get(
            context, "/design", {"code": "h(7,4)", "target_ber": "1e-12"}
        )
        assert status == 200 and payload["cached"] is True

    def test_inflight_pressure_escalates(self, context):
        for _ in range(routes._MAX_INFLIGHT):
            context.shedder.enter()
        assert context.shedder.level() == LoadShedder.CACHED_ONLY
        for _ in range(3 * routes._MAX_INFLIGHT):
            context.shedder.enter()
        assert context.shedder.level() == LoadShedder.HEALTH_ONLY

    def test_health_only_answers_healthz_alone(self, context):
        context.shedder.draining = True
        assert context.shedder.level() == LoadShedder.HEALTH_ONLY
        assert _get(context, "/healthz")[0] == 200
        for path in ("/readyz", "/metricsz", "/jobs", "/design"):
            status, payload, _ = _get(context, path)
            assert status == 503, path
        status, payload, _ = _get(context, "/readyz")
        assert status == 503

    def test_readyz_reflects_drain(self, context):
        status, payload, _ = _get(context, "/readyz")
        assert status == 200 and payload["ready"] is True
        context.shedder.draining = True
        status, payload, _ = _get(context, "/readyz")
        assert status == 503

    def test_shed_metrics_are_counted(self, context):
        _fill_queue(context, 4)
        _post(context, "/jobs", {"experiment": "figure5"})
        counters = context.registry.snapshot()["counters"]
        assert counters.get("service.shed.request", 0) + counters.get(
            "service.shed.submit", 0
        ) >= 1

    def test_queue_full_submission_is_429(self, tmp_path, monkeypatch):
        # a wide-open shedder so admission is decided by the queue itself
        monkeypatch.setattr(routes, "_SHED_DEPTH_FRACTION", 1.0)
        queue = DurableJobQueue(str(tmp_path / "queue"), max_depth=1)
        shedder = LoadShedder(queue)
        context = ServiceContext(
            queue=queue,
            store=ResultsStore(str(tmp_path / "results")),
            supervisor=_AliveSupervisor(),
            designer=OpticalLinkDesigner(),
            config=DEFAULT_CONFIG,
            shedder=shedder,
        )
        queue.submit(Job(job_id="0" * 16, experiment="table1", options=None))
        # depth == max_depth -> CACHED_ONLY cuts the submission path already;
        # drop to a state where only QueueFullError can reject
        shedder.draining = False
        status, payload, headers = _post(context, "/jobs", {"experiment": "table1"})
        assert status in (429, 503)


class TestSelfHealing:
    def test_done_job_with_lost_result_is_resubmitted(self, context):
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        job_id = payload["job_id"]
        context.queue.transition(job_id, JobState.RUNNING)
        context.queue.transition(job_id, JobState.DONE)
        # the result was never stored (or was quarantined): asking for it
        # re-queues the work instead of serving nothing forever
        status, payload, headers = _get(context, f"/jobs/{job_id}/result")
        assert status == 503 and headers["Retry-After"] == "5"
        assert context.queue.get(job_id).state == JobState.QUEUED

    def test_result_served_when_intact(self, context):
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        job_id = payload["job_id"]
        context.queue.transition(job_id, JobState.RUNNING)
        context.queue.transition(job_id, JobState.DONE)
        context.store.put(job_id, {"text": "report", "rows": []})
        status, payload, _ = _get(context, f"/jobs/{job_id}/result")
        assert status == 200 and payload["result"]["text"] == "report"

    def test_duplicate_submission_of_done_job_is_cached(self, context):
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        job_id = payload["job_id"]
        context.queue.transition(job_id, JobState.RUNNING)
        context.queue.transition(job_id, JobState.DONE)
        context.store.put(job_id, {"text": "report", "rows": []})
        status, payload, _ = _post(context, "/jobs", {"experiment": "table1"})
        assert status == 200 and payload["cached"] is True and not payload["created"]
