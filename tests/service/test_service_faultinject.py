"""Chaos tests: the service survives worker kills, hangs and disk damage.

Extends the orchestrator's fault-injection grid
(``tests/experiments/faultinject.py``) to the service layer.  The recovery
claim under test is strict: after any injected fault — a SIGKILLed worker,
a hang past the job timeout, a truncated results artefact, a corrupted
queue record — the job still completes and its result is **byte-identical**
to an uninterrupted serial run (position-keyed shard seeds + checkpoint
salvage make the retry recompute only what was lost).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "experiments"))
import faultinject  # noqa: E402

from repro.experiments import orchestrator  # noqa: E402
from repro.service import ServiceConfig, SimulationService  # noqa: E402
from repro.service.models import JobState  # noqa: E402

from test_service_api import poll_until_terminal, request  # noqa: E402

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service workers require the fork start method",
)



@pytest.fixture(scope="module", autouse=True)
def _faultinject_grid():
    """Register the fault-injection grid for this module's tests only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(orchestrator._GRIDS, faultinject.EXPERIMENT, faultinject.GRID)
        yield

#: Tight supervisor budgets so retries happen in test time, not minutes.
FAST = dict(backoff_base_s=0.05, backoff_cap_s=0.2)


def _service(tmp_path, **overrides):
    config = ServiceConfig(**{**FAST, **overrides})
    return SimulationService(data_dir=str(tmp_path / "data"), service_config=config)


def _options(work_dir, **faults):
    return {"work_dir": str(work_dir), "num_shards": 4, **faults}


def _serial_expectation(tmp_path):
    """The fault-free reference result, computed without the service."""
    from repro.experiments.orchestrator import run_experiment

    clean = tmp_path / "reference"
    clean.mkdir()
    text, rows = run_experiment(
        faultinject.EXPERIMENT, options=_options(clean)
    )
    return text, rows


def _submit(base, options):
    status, payload, _ = request(
        f"{base}/jobs", "POST", {"experiment": faultinject.EXPERIMENT, "options": options}
    )
    assert status == 202, payload
    return payload["job_id"]


class TestWorkerDeath:
    def test_sigkilled_worker_recovers_byte_identical(self, tmp_path):
        """A shard SIGKILLs the forked job worker; the retry resumes and wins."""
        expected_text, expected_rows = _serial_expectation(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = _submit(svc.url, _options(work, kill_once=[2]))
            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
            assert final["attempts"] == 1  # exactly one charged failure

            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert status == 200
            assert payload["result"]["text"] == expected_text
            assert payload["result"]["rows"] == expected_rows

            # checkpoint salvage: shards 0 and 1 landed before the kill and
            # were not re-executed on the retry
            counts = faultinject.attempt_counts(str(work))
            assert counts[0] == 1 and counts[1] == 1
            assert counts[2] == 2  # the killer shard ran twice
        finally:
            svc.stop(drain_timeout_s=10.0)

    def test_sigkill_by_pid_mid_job(self, tmp_path):
        """Killing the worker process externally is survived the same way."""
        expected_text, _ = _serial_expectation(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = _submit(svc.url, _options(work, sleep_s=0.2))
            deadline = time.monotonic() + 30.0
            pid = None
            while pid is None and time.monotonic() < deadline:
                pid = svc.supervisor.active_worker_pid()
                time.sleep(0.01)
            assert pid is not None, "worker never started"
            os.kill(pid, signal.SIGKILL)

            # The API keeps answering design queries while the job recovers.
            design = f"{svc.url}/design?code=secded(72,64)&target_ber=1e-12"
            answered = 0
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                status, final, _ = request(f"{svc.url}/jobs/{job_id}")
                assert status == 200, final
                if final["state"] in (JobState.DONE, JobState.DEAD):
                    break
                assert request(design)[0] == 200
                answered += 1
            assert final["state"] == JobState.DONE
            assert final["attempts"] >= 1
            assert answered > 0
            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert payload["result"]["text"] == expected_text
        finally:
            svc.stop(drain_timeout_s=10.0)

    def test_hang_past_job_timeout_is_terminated_and_retried(self, tmp_path):
        expected_text, _ = _serial_expectation(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path, job_timeout_s=1.5)
        svc.start()
        try:
            job_id = _submit(
                svc.url, _options(work, hang_once=[1], hang_seconds=30.0)
            )
            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
            assert final["attempts"] >= 1  # the timeout was charged
            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert payload["result"]["text"] == expected_text
        finally:
            svc.stop(drain_timeout_s=10.0)

    def test_deterministic_failure_trips_the_circuit_breaker(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path, max_deterministic_failures=2)
        svc.start()
        try:
            job_id = _submit(svc.url, _options(work, raise_on=[3]))
            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DEAD
            assert final["deterministic_failures"] == 2
            # poison: never burned the transient-retry budget
            assert final["attempts"] == 0
            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert status == 409
        finally:
            svc.stop(drain_timeout_s=10.0)


class TestDiskDamage:
    def _completed_job(self, svc, work):
        job_id = _submit(svc.url, _options(work))
        final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
        assert final["state"] == JobState.DONE
        return job_id

    def test_truncated_result_is_quarantined_and_recomputed(self, tmp_path):
        expected_text, expected_rows = _serial_expectation(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = self._completed_job(svc, work)
            artefact = svc.store.path(job_id)
            original = open(artefact, encoding="utf-8").read()
            with open(artefact, "w", encoding="utf-8") as handle:
                handle.write(original[: len(original) // 3])

            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert status == 503  # damage found, job re-queued
            assert os.path.exists(artefact + ".corrupt")

            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
            status, payload, _ = request(f"{svc.url}/jobs/{job_id}/result")
            assert status == 200
            assert payload["result"]["text"] == expected_text
            assert payload["result"]["rows"] == expected_rows
        finally:
            svc.stop(drain_timeout_s=10.0)

    def test_garbage_result_on_resubmission_path(self, tmp_path):
        """A damaged artefact discovered at submission time self-heals too."""
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = self._completed_job(svc, work)
            artefact = svc.store.path(job_id)
            with open(artefact, "w", encoding="utf-8") as handle:
                handle.write("not json at all")

            options = _options(work)
            status, payload, _ = request(
                f"{svc.url}/jobs",
                "POST",
                {"experiment": faultinject.EXPERIMENT, "options": options},
            )
            assert status == 202 and payload["created"] is False
            assert payload["state"] == JobState.QUEUED
            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
        finally:
            svc.stop(drain_timeout_s=10.0)

    def test_corrupt_queue_record_is_quarantined_on_restart(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = self._completed_job(svc, work)
        finally:
            svc.stop(drain_timeout_s=10.0)

        record = os.path.join(str(tmp_path / "data"), "queue", f"{job_id}.json")
        document = json.loads(open(record, encoding="utf-8").read())
        document["job"]["state"] = JobState.QUEUED  # tamper: checksum now wrong
        with open(record, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        reborn = _service(tmp_path)
        reborn.start()
        try:
            assert os.path.exists(record + ".corrupt")
            # the job is forgotten; submitting the same grid is a fresh job
            status, payload, _ = request(f"{reborn.url}/jobs/{job_id}")
            assert status == 404
            job_again = _submit(reborn.url, _options(work))
            assert job_again == job_id
            final = poll_until_terminal(reborn.url, job_again, deadline_s=90.0)
            assert final["state"] == JobState.DONE
        finally:
            reborn.stop(drain_timeout_s=10.0)


class TestDrain:
    def test_stop_requeues_the_running_job_for_the_next_life(self, tmp_path):
        expected_text, _ = _serial_expectation(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path, job_timeout_s=60.0)
        svc.start()
        job_id = _submit(svc.url, _options(work, sleep_s=0.4))
        deadline = time.monotonic() + 30.0
        while svc.supervisor.active_worker_pid() is None:
            assert time.monotonic() < deadline, "worker never started"
            time.sleep(0.01)
        svc.stop(drain_timeout_s=20.0)

        # the interrupted job went back to queued, uncharged
        reborn = _service(tmp_path)
        try:
            job = reborn.queue.get(job_id)
            assert job.state == JobState.QUEUED
            assert job.attempts == 0
            reborn.start()
            final = poll_until_terminal(reborn.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
            status, payload, _ = request(f"{reborn.url}/jobs/{job_id}/result")
            assert payload["result"]["text"] == expected_text
        finally:
            reborn.stop(drain_timeout_s=10.0)

    def test_job_manifest_records_every_attempt(self, tmp_path):
        from repro.obs.manifest import job_manifest_path, load_manifest

        work = tmp_path / "work"
        work.mkdir()
        svc = _service(tmp_path)
        svc.start()
        try:
            job_id = _submit(svc.url, _options(work, kill_once=[1]))
            final = poll_until_terminal(svc.url, job_id, deadline_s=90.0)
            assert final["state"] == JobState.DONE
            path = job_manifest_path(svc.supervisor.job_dir(job_id), job_id)
            manifest = load_manifest(path)
            assert manifest["kind"] == "job-manifest"
            assert manifest["job"]["state"] == JobState.DONE
            outcomes = [attempt["outcome"] for attempt in manifest["attempts"]]
            assert outcomes == ["crashed", "done"]
            assert manifest["result_path"] == svc.store.path(job_id)
        finally:
            svc.stop(drain_timeout_s=10.0)
