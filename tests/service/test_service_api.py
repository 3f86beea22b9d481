"""End-to-end tests of the simulation service over real HTTP.

An in-process :class:`~repro.service.server.SimulationService` on an
ephemeral port, driven with ``urllib`` — the full submit → poll → fetch
flow, idempotent resubmission, queue-full backpressure and restart
recovery from the same data directory.

The supervisor forks its job workers, so the tiny ``svcmini`` experiment,
registered by a module fixture before any service starts, is visible
inside them (fork start method, same trick as the orchestrator's
fault-injection tests); the fixture removes it when the module's tests end.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.registry import available_codes, get_code
from repro.experiments import orchestrator
from repro.experiments.orchestrator import GridFunctions, run_experiment
from repro.link.design import OpticalLinkDesigner
from repro.service import ServiceConfig, SimulationService, server
from repro.service.models import JobState
from repro.service.server import MAX_BODY_BYTES

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service workers require the fork start method",
)

EXPERIMENT = "svcmini"


def _shards(config, options):
    options = options or {}
    return [{"index": index} for index in range(int(options.get("num_shards", 3)))]


def _run_shard(params, config):
    return {"index": params["index"], "value": 10 + params["index"]}


def _merge(payloads, config, options):
    rows = [dict(payload) for payload in payloads]
    text = "values: " + ", ".join(str(row["value"]) for row in rows)
    return text, rows


@pytest.fixture(scope="module", autouse=True)
def _svcmini_grid():
    """Register ``svcmini`` for this module's tests only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(orchestrator._GRIDS, EXPERIMENT, GridFunctions(_shards, _run_shard, _merge))
        yield


#: A second life in a fresh interpreter: recover the spool, run the queued
#: job ``argv[2]`` and print its result text.
RESTART = """
import sys, threading, time
from repro.experiments import orchestrator
from repro.service import SimulationService
from repro.service.models import JobState

data_dir, job_id = sys.argv[1:]
service = SimulationService(data_dir=data_dir)
pending = [name for name, grid in orchestrator._GRIDS.items()
           if not isinstance(grid, orchestrator.GridFunctions)]
assert not pending, pending
assert "repro.netsim" in sys.modules
assert threading.active_count() == 1
service.start()
try:
    deadline = time.monotonic() + 120
    while service.queue.get(job_id).state != JobState.DONE:
        assert service.queue.get(job_id).state != JobState.DEAD
        assert time.monotonic() < deadline
        time.sleep(0.05)
finally:
    service.stop(drain_timeout_s=10.0)
sys.stdout.write(service.store.get(job_id)["text"])
"""


def unsupervised_service(**kwargs) -> SimulationService:
    """A service that runs no supervisor: nothing drains its queue."""
    with mock.patch.object(server, "_SUPERVISE", False):
        return SimulationService(**kwargs)


def request(url, method="GET", body=None, timeout=30):
    """One JSON request; returns ``(status, payload, headers)``, never raises."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), dict(error.headers)


def poll_until_terminal(base, job_id, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, payload, _ = request(f"{base}/jobs/{job_id}")
        assert status == 200, payload
        # "failed" is transient: the supervisor immediately re-queues the
        # job (backoff) or marks it dead; only done/dead are terminal
        if payload["state"] in (JobState.DONE, JobState.DEAD):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture
def service(tmp_path):
    svc = SimulationService(data_dir=str(tmp_path / "data"))
    svc.start()
    yield svc
    svc.stop(drain_timeout_s=10.0)


class TestJobFlow:
    def test_submit_poll_fetch(self, service):
        base = service.url
        status, payload, _ = request(
            f"{base}/jobs", "POST", {"experiment": EXPERIMENT, "options": {}}
        )
        assert status == 202 and payload["created"] is True
        job_id = payload["job_id"]

        final = poll_until_terminal(base, job_id)
        assert final["state"] == JobState.DONE and final["result_ready"] is True

        status, payload, _ = request(f"{base}/jobs/{job_id}/result")
        assert status == 200
        expected_text, expected_rows = run_experiment(EXPERIMENT, options={})
        assert payload["result"]["text"] == expected_text
        assert payload["result"]["rows"] == expected_rows

    def test_duplicate_submission_joins_then_caches(self, service):
        base = service.url
        body = {"experiment": EXPERIMENT, "options": {"num_shards": 4}}
        status, first, _ = request(f"{base}/jobs", "POST", body)
        assert status == 202
        status, second, _ = request(f"{base}/jobs", "POST", body)
        assert status == 200
        assert second["job_id"] == first["job_id"] and second["created"] is False

        poll_until_terminal(base, first["job_id"])
        status, third, _ = request(f"{base}/jobs", "POST", body)
        assert status == 200 and third["cached"] is True

        # a different grid is a different job
        other = {"experiment": EXPERIMENT, "options": {"num_shards": 5}}
        status, fourth, _ = request(f"{base}/jobs", "POST", other)
        assert status == 202 and fourth["job_id"] != first["job_id"]
        poll_until_terminal(base, fourth["job_id"])

    def test_manifest_exists_once_the_job_is_seen_done(self, service, monkeypatch):
        from repro.obs import manifest as obs_manifest

        write = obs_manifest.write_manifest

        def slow_write(path, manifest):
            time.sleep(0.5)  # far longer than the poll interval
            return write(path, manifest)

        monkeypatch.setattr(obs_manifest, "write_manifest", slow_write)
        status, payload, _ = request(
            f"{service.url}/jobs", "POST", {"experiment": EXPERIMENT, "options": {"num_shards": 2}}
        )
        assert status == 202
        job_id = payload["job_id"]
        final = poll_until_terminal(service.url, job_id)
        assert final["state"] == JobState.DONE
        path = obs_manifest.job_manifest_path(service.supervisor.job_dir(job_id), job_id)
        assert obs_manifest.load_manifest(path)["job"]["state"] == JobState.DONE

    def test_cancel_queued_job(self, tmp_path):
        # no supervisor: submissions stay queued so cancellation is race-free
        svc = unsupervised_service(data_dir=str(tmp_path / "data"))
        svc.start()
        try:
            base = svc.url
            status, payload, _ = request(
                f"{base}/jobs", "POST", {"experiment": EXPERIMENT}
            )
            job_id = payload["job_id"]
            status, payload, _ = request(f"{base}/jobs/{job_id}/cancel", "POST")
            assert status == 503  # cancel needs a supervisor
        finally:
            svc.stop(drain_timeout_s=5.0)

    def test_health_and_metrics(self, service):
        base = service.url
        assert request(f"{base}/healthz")[0] == 200
        status, payload, _ = request(f"{base}/readyz")
        assert status == 200 and payload["ready"] is True
        status, payload, _ = request(f"{base}/metricsz")
        assert status == 200 and payload["shed_level"] == "normal"
        assert payload["queue"] == {state: 0 for state in JobState.ALL}


class TestBackpressure:
    def test_queue_full_submission_gets_429_with_retry_after(self, tmp_path):
        svc = unsupervised_service(  # nothing drains the queue
            data_dir=str(tmp_path / "data"),
            service_config=ServiceConfig(max_queue_depth=1),
        )
        svc.start()
        try:
            base = svc.url
            status, payload, _ = request(
                f"{base}/jobs", "POST", {"experiment": EXPERIMENT, "options": {}}
            )
            assert status == 202
            status, payload, headers = request(
                f"{base}/jobs",
                "POST",
                {"experiment": EXPERIMENT, "options": {"num_shards": 7}},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            # the already-admitted job is still pollable while shedding
            first_id = request(f"{base}/jobs")[1]["jobs"][0]["job_id"]
            assert request(f"{base}/jobs/{first_id}")[0] == 200
        finally:
            svc.stop(drain_timeout_s=5.0)


class TestRestartRecovery:
    def test_jobs_survive_a_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")
        # first life: accept a job but never run it (no supervisor)
        first = unsupervised_service(data_dir=data_dir)
        first.start()
        try:
            status, payload, _ = request(
                f"{first.url}/jobs", "POST", {"experiment": EXPERIMENT, "options": {}}
            )
            assert status == 202
            job_id = payload["job_id"]
        finally:
            first.stop(drain_timeout_s=5.0)

        # second life: the queued job is recovered and completed
        second = SimulationService(data_dir=data_dir)
        second.start()
        try:
            base = second.url
            final = poll_until_terminal(base, job_id)
            assert final["state"] == JobState.DONE
            status, payload, _ = request(f"{base}/jobs/{job_id}/result")
            assert status == 200
            expected_text, _ = run_experiment(EXPERIMENT, options={})
            assert payload["result"]["text"] == expected_text
        finally:
            second.stop(drain_timeout_s=10.0)

    def test_recovered_shipped_job_runs_in_a_fresh_process(self, tmp_path):
        """A spooled job of a shipped grid completes after a restart in a new
        interpreter, whose service imported every grid before any thread
        started (so its forked worker neither imports one itself nor
        inherits an import lock a request thread held)."""
        data_dir = str(tmp_path / "data")
        first = unsupervised_service(data_dir=data_dir)
        first.start()
        try:
            status, payload, _ = request(
                f"{first.url}/jobs", "POST", {"experiment": "table1", "options": {}}
            )
            assert status == 202
            job_id = payload["job_id"]
        finally:
            first.stop(drain_timeout_s=5.0)

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", RESTART, data_dir, job_id],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        expected_text, _ = run_experiment("table1")
        assert completed.stdout == expected_text

    def test_done_results_survive_a_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")
        first = SimulationService(data_dir=data_dir)
        first.start()
        try:
            status, payload, _ = request(
                f"{first.url}/jobs", "POST", {"experiment": EXPERIMENT, "options": {}}
            )
            job_id = payload["job_id"]
            poll_until_terminal(first.url, job_id)
        finally:
            first.stop(drain_timeout_s=10.0)

        second = SimulationService(data_dir=data_dir)
        second.start()
        try:
            status, payload, _ = request(f"{second.url}/jobs/{job_id}")
            assert status == 200 and payload["state"] == JobState.DONE
            status, payload, _ = request(f"{second.url}/jobs/{job_id}/result")
            assert status == 200
        finally:
            second.stop(drain_timeout_s=5.0)


@pytest.fixture
def bare_service(tmp_path):
    """A service without a supervisor: the wire tests need no worker."""
    svc = unsupervised_service(data_dir=str(tmp_path / "data"))
    svc.start()
    yield svc
    svc.stop(drain_timeout_s=5.0)


def _raw_exchange(service, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; all the server sends until it closes."""
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _statuses(response: bytes) -> list:
    # Bodies are JSON or http.server's error page; neither holds a status line.
    return [int(code) for code in re.findall(rb"HTTP/1\.[01] (\d{3}) ", response)]


class TestWire:
    """Responses leave through one buffered writer, flushed once each."""

    KEEP_ALIVE = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    #: Four words: HTTP/1.1 by its version, malformed by its shape.
    MALFORMED = b"GET /healthz junk HTTP/1.1\r\nHost: test\r\n%s\r\n"
    UNSUPPORTED = b"BREW /healthz HTTP/1.1\r\nHost: test\r\n%s\r\n"

    def test_design_body_is_the_asdict_document(self, bare_service):
        code, target = get_code("h(7,4)"), 3.5e-11
        expected = asdict(OpticalLinkDesigner().design_point(code, target))
        connection = http.client.HTTPConnection(bare_service.host, bare_service.port, timeout=10)
        try:
            for cached in (False, True):
                connection.request("GET", f"/design?code=h(7,4)&target_ber={target!r}")
                response = connection.getresponse()
                assert response.status == 200
                assert response.read() == json.dumps(
                    {"cached": cached, "point": expected}
                ).encode("utf-8")
        finally:
            connection.close()

    @pytest.mark.parametrize("template, status", [(MALFORMED, 400), (UNSUPPORTED, 501)])
    def test_error_reply_on_a_keep_alive_connection(self, bare_service, template, status):
        response = _raw_exchange(bare_service, self.KEEP_ALIVE + template % b"")
        assert _statuses(response) == [200, status]

    @pytest.mark.parametrize("template, status", [(MALFORMED, 400), (UNSUPPORTED, 501)])
    def test_error_reply_on_a_closing_connection(self, bare_service, template, status):
        response = _raw_exchange(bare_service, template % b"Connection: close\r\n")
        assert _statuses(response) == [status]

    def test_continue_is_sent_before_the_body(self, bare_service):
        # The client withholds the body until the 100 arrives; a 100 left
        # in the write buffer would deadlock both ends until the timeout.
        body = json.dumps({"experiment": EXPERIMENT, "options": {}}).encode("utf-8")
        head = (
            b"POST /jobs HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        with socket.create_connection((bare_service.host, bare_service.port), timeout=5) as sock:
            sock.sendall(head)
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(65536)
                assert chunk, "connection closed before the interim reply"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            chunks = [interim]
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert _statuses(b"".join(chunks)) == [100, 202]

    def test_vanished_client_is_dropped_quietly(self, bare_service):
        # The request is read from the socket buffer after the client has
        # closed, so the one flush of the reply fails with EPIPE; handling
        # runs in the constructor and must not raise.
        server = bare_service._server
        handler = type(
            "UnixHandler", (server.RequestHandlerClass,), {"disable_nagle_algorithm": False}
        )
        server_end, client_end = socket.socketpair()
        with server_end:
            client_end.sendall(self.KEEP_ALIVE)
            client_end.close()
            handler(server_end, ("client", 0), server)

    @pytest.mark.parametrize("length", [b"abc", b"-1", b"1.5"])
    def test_bad_content_length_is_400(self, bare_service, length):
        # The handler thread must answer, not die with the connection open.
        request = b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: %s\r\n\r\n{}" % length
        response = _raw_exchange(bare_service, request)
        assert _statuses(response) == [400]
        assert b"Content-Length" in response


@pytest.fixture(scope="module")
def hostile_service(tmp_path_factory):
    """One supervisor-less service for every example; its queue never fills."""
    svc = unsupervised_service(
        data_dir=str(tmp_path_factory.mktemp("hostile") / "data"),
        service_config=ServiceConfig(max_queue_depth=1 << 20),
    )
    svc.start()
    yield svc
    svc.stop(drain_timeout_s=5.0)


class TestHostileInput:
    """Whatever a client sends, it gets one 2xx or 4xx reply: no 5xx, no drop.

    The generators follow a test-generator checklist: empty and null
    values, malformed and non-UTF-8 query strings, bad and negative
    ``Content-Length`` values, oversized and non-object bodies.
    """

    #: Without a supervisor ``/readyz`` and ``/jobs/<id>/cancel`` answer
    #: 503 by design, so they are left out.
    _PATHS = (
        "/healthz", "/metricsz", "/design", "/jobs", "/jobs/0123456789abcdef",
        "/jobs/0123456789abcdef/result", "/", "/nope",
    )
    #: Written into the request line as they are: malformed escapes,
    #: escaped and raw non-UTF-8 bytes, empty and null values.
    _RAW_QUERY_PARTS = (
        "", "=", "&&", "null", "%", "%zz", "%ff%fe", "%C3%28", "\x80\xff", "a=%00", ";",
    )
    _JSON_SCALAR = (
        st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=8)
    )
    _JOB = st.fixed_dictionaries(
        {},
        optional={
            "experiment": st.sampled_from(["table1", "figure5", "network", EXPERIMENT])
            | _JSON_SCALAR,
            "options": st.dictionaries(st.text(max_size=8), _JSON_SCALAR, max_size=2)
            | _JSON_SCALAR,
            "jobs": _JSON_SCALAR,
        },
    )
    _BODY = (
        st.none()
        | st.builds(
            lambda doc: json.dumps(doc).encode("utf-8"),
            _JOB | st.lists(_JSON_SCALAR, max_size=3) | _JSON_SCALAR,
        )
        | st.binary(max_size=16)
    )
    #: ``None``: no header; ``"exact"``: the body's length.
    _LENGTH = (
        st.sampled_from(
            [None, "exact", "", " ", "abc", "-1", "-100", "1.5", "0x10", "1e3", "\xff",
             str(MAX_BODY_BYTES + 1), "9" * 30]
        )
        | st.integers(-5, 64).map(str)
    )

    @staticmethod
    def _query(pairs, raw) -> str:
        escaped = [
            urllib.parse.quote(key, safe="") + "=" + urllib.parse.quote(value, safe="")
            for key, value in pairs
        ]
        return "&".join(escaped + raw)

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(["GET", "POST"]),
        path=st.sampled_from(_PATHS),
        pairs=st.lists(
            st.tuples(
                st.sampled_from(["code", "target_ber"]) | st.text(max_size=6),
                st.sampled_from(["", "null", "nan", "-1", "1e-9", *available_codes()])
                | st.text(max_size=8),
            ),
            max_size=3,
        ),
        raw=st.lists(st.sampled_from(_RAW_QUERY_PARTS), max_size=3),
        body=_BODY,
        length=_LENGTH,
    )
    def test_every_request_gets_a_2xx_or_4xx_reply(
        self, hostile_service, method, path, pairs, raw, body, length
    ):
        query = self._query(pairs, raw)
        target = path + ("?" + query if query else "")
        head = f"{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        if length == "exact":
            length = str(len(body or b""))
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        with socket.create_connection(
            (hostile_service.host, hostile_service.port), timeout=10
        ) as sock:
            sock.sendall(request)
            # A Content-Length longer than the body then reads a short body.
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        response = b"".join(chunks)
        status_line = response.split(b"\r\n", 1)[0]
        assert re.fullmatch(rb"HTTP/1\.[01] [24]\d\d .*", status_line), (request, response[:200])
