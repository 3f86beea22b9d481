"""Unit tests for the service's durable primitives.

Covers the job state machine (:mod:`repro.service.models`), the durable
queue's persistence/recovery/admission (:mod:`repro.service.queue`) and
the checksummed stores with quarantine-on-corruption
(:mod:`repro.service.store`) — all without a running service.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro import durable
from repro.exceptions import ConfigurationError, JobNotFoundError, QueueFullError
from repro.link.design import OpticalLinkDesigner
from repro.coding.registry import get_code
from repro.obs import metrics as obs_metrics
from repro.service.models import Job, JobState
from repro.service.queue import DurableJobQueue
from repro.service.store import PersistentDesignCache, ResultsStore


def _job(job_id: str = "a" * 16, **overrides) -> Job:
    defaults = dict(job_id=job_id, experiment="table1", options=None)
    defaults.update(overrides)
    return Job(**defaults)


class TestJobStateMachine:
    def test_happy_path_transitions(self):
        job = _job()
        job = job.transitioned(JobState.RUNNING)
        job = job.transitioned(JobState.DONE)
        assert job.terminal

    def test_retry_cycle_charges_attempts(self):
        job = _job().transitioned(JobState.RUNNING)
        job = job.transitioned(JobState.FAILED, error="boom", charge_attempt=True)
        assert job.attempts == 1 and job.error == "boom"
        job = job.transitioned(JobState.QUEUED, not_before_s=123.0)
        assert job.not_before_s == 123.0 and job.attempts == 1

    def test_deterministic_failures_counted_separately(self):
        job = _job().transitioned(JobState.RUNNING)
        job = job.transitioned(JobState.FAILED, charge_deterministic=True)
        assert job.deterministic_failures == 1 and job.attempts == 0

    @pytest.mark.parametrize(
        "start,target",
        [
            (JobState.QUEUED, JobState.DONE),  # must pass through running
            (JobState.DONE, JobState.RUNNING),  # terminal
            (JobState.DEAD, JobState.QUEUED),  # terminal (requeued() only)
            (JobState.FAILED, JobState.DONE),
        ],
    )
    def test_illegal_transitions_raise(self, start, target):
        job = _job(state=start)
        with pytest.raises(ConfigurationError):
            job.transitioned(target)

    def test_unknown_state_rejected(self):
        with pytest.raises(ConfigurationError):
            _job().transitioned("zombie")
        with pytest.raises(ConfigurationError):
            Job.from_dict({**_job().to_dict(), "state": "zombie"})

    def test_requeued_resets_retry_counters(self):
        job = _job(state=JobState.DONE, attempts=2, deterministic_failures=1, error="x")
        fresh = job.requeued()
        assert fresh.state == JobState.QUEUED
        assert fresh.attempts == 0 and fresh.deterministic_failures == 0
        assert fresh.error is None and fresh.not_before_s == 0.0

    def test_roundtrip_and_checksum_stability(self):
        job = _job(options={"b": 2, "a": 1})
        data = job.to_dict()
        assert Job.from_dict(data) == job
        # canonical JSON: key order must not matter
        assert durable.digest(data) == durable.digest(json.loads(json.dumps(data)))


class TestDurableJobQueue:
    def test_submit_is_idempotent(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        job, created = queue.submit(_job())
        assert created
        again, created = queue.submit(_job())
        assert not created and again.job_id == job.job_id

    def test_full_queue_rejects_with_backpressure_hint(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path), max_depth=2)
        queue.submit(_job("a" * 16))
        queue.submit(_job("b" * 16))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(_job("c" * 16))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after_s >= 1.0
        # terminal jobs free capacity
        queue.transition("a" * 16, JobState.RUNNING)
        queue.transition("a" * 16, JobState.DONE)
        queue.submit(_job("c" * 16))

    def test_claim_order_and_backoff_eligibility(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        first = _job("a" * 16, created_s=1.0)
        second = _job("b" * 16, created_s=2.0, not_before_s=100.0)
        queue.submit(second)
        queue.submit(first)
        claimed = queue.claim_next(now_s=50.0)
        assert claimed.job_id == first.job_id and claimed.state == JobState.RUNNING
        # second is backoff-pending at t=50 but eligible at t=150
        assert queue.claim_next(now_s=50.0) is None
        assert queue.next_retry_delay_s(now_s=50.0) == pytest.approx(50.0)
        assert queue.claim_next(now_s=150.0).job_id == second.job_id

    def test_restart_recovers_interrupted_jobs(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        queue.submit(_job("a" * 16))
        queue.transition("a" * 16, JobState.RUNNING)
        queue.submit(_job("b" * 16))
        queue.transition("b" * 16, JobState.RUNNING)
        queue.transition("b" * 16, JobState.FAILED, error="x", charge_attempt=True)
        queue.submit(_job("c" * 16))
        queue.transition("c" * 16, JobState.RUNNING)
        queue.transition("c" * 16, JobState.DONE)

        # __init__ recovers the spool: interrupted jobs come back queued
        reborn = DurableJobQueue(str(tmp_path))
        assert reborn.get("a" * 16).state == JobState.QUEUED
        assert reborn.get("b" * 16).state == JobState.QUEUED
        assert reborn.get("b" * 16).attempts == 1  # history survives recovery
        assert reborn.get("c" * 16).state == JobState.DONE

    def test_damaged_records_are_quarantined_on_recovery(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        queue.submit(_job("a" * 16))
        queue.submit(_job("b" * 16))
        garbage = tmp_path / ("a" * 16 + ".json")
        garbage.write_text("{not json", encoding="utf-8")
        # valid JSON but checksum mismatch
        tampered = tmp_path / ("b" * 16 + ".json")
        document = json.loads(tampered.read_text(encoding="utf-8"))
        document["job"]["experiment"] = "tampered"
        tampered.write_text(json.dumps(document), encoding="utf-8")

        reborn = DurableJobQueue(str(tmp_path))
        with pytest.raises(JobNotFoundError):
            reborn.get("a" * 16)
        with pytest.raises(JobNotFoundError):
            reborn.get("b" * 16)
        assert (tmp_path / ("a" * 16 + ".json.corrupt")).exists()
        assert (tmp_path / ("b" * 16 + ".json.corrupt")).exists()

    def test_counts_are_zero_filled(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        assert queue.counts() == {state: 0 for state in JobState.ALL}
        queue.submit(_job())
        assert queue.counts()[JobState.QUEUED] == 1

    def test_before_publish_runs_between_durable_write_and_visibility(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        queue.submit(_job())
        queue.transition("a" * 16, JobState.RUNNING)
        seen = {}

        def hook(job):
            record = json.loads((tmp_path / ("a" * 16 + ".json")).read_text(encoding="utf-8"))
            seen["on_disk"] = record["job"]["state"]
            reader = threading.Thread(target=lambda: seen.update(read=queue.get(job.job_id).state))
            reader.start()
            reader.join(timeout=0.2)
            seen["reader_waited"] = reader.is_alive()
            seen["reader"] = reader

        queue.transition("a" * 16, JobState.DONE, before_publish=hook)
        seen["reader"].join()
        assert seen["on_disk"] == JobState.DONE
        assert seen["reader_waited"] is True
        assert seen["read"] == JobState.DONE

    def test_a_failing_before_publish_still_publishes_the_durable_state(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        queue.submit(_job())
        queue.transition("a" * 16, JobState.RUNNING)

        def hook(job):
            raise RuntimeError("hook failed")

        with pytest.raises(RuntimeError):
            queue.transition("a" * 16, JobState.DONE, before_publish=hook)
        assert queue.get("a" * 16).state == JobState.DONE
        assert DurableJobQueue(str(tmp_path)).get("a" * 16).state == JobState.DONE


class TestResultsStore:
    def test_roundtrip(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        payload = {"text": "report", "rows": [{"a": 1}]}
        store.put("f" * 16, payload)
        assert store.get("f" * 16) == payload
        assert ("f" * 16) in store

    def test_miss_is_none(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        assert store.get("0" * 16) is None

    def test_bad_fingerprint_rejected(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.path("../../etc/passwd")
        with pytest.raises(ValueError):
            store.path("UPPER")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncation
            lambda text: "garbage not json",
            lambda text: text.replace('"payload"', '"hijacked"'),
        ],
    )
    def test_damage_quarantined_and_reported_as_miss(self, tmp_path, damage):
        store = ResultsStore(str(tmp_path))
        path = store.put("f" * 16, {"text": "report", "rows": []})
        original = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(damage(original))
        assert store.get("f" * 16) is None
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)


class TestPersistentDesignCache:
    def test_survives_restart(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        designer = OpticalLinkDesigner(persistent_cache=PersistentDesignCache(path))
        code = get_code("h(7,4)")
        point = designer.design_point(code, 1e-12)

        with obs_metrics.collecting() as registry:
            fresh = OpticalLinkDesigner(persistent_cache=PersistentDesignCache(path))
            assert fresh.design_point(code, 1e-12) == point
        counters = registry.snapshot()["counters"]
        assert counters.get("link.design_point.persistent_hits") == 1
        assert "link.design_point.cache_misses" not in counters

    def test_damaged_line_salvages_the_rest(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = PersistentDesignCache(path)
        designer = OpticalLinkDesigner(persistent_cache=cache)
        good = designer.design_point(get_code("h(7,4)"), 1e-12)
        designer.design_point(get_code("secded(72,64)"), 1e-12)

        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n")
            handle.write(lines[1][: len(lines[1]) // 2] + "\n")  # torn append

        salvaged = PersistentDesignCache(path)
        assert len(salvaged) == 1
        assert os.path.exists(path + ".corrupt")
        code = get_code("h(7,4)")
        key = (code.name, code.n, code.k, 1e-12)
        assert salvaged.load(key) == good
        # the rewritten file is clean: reloading quarantines nothing further
        assert len(PersistentDesignCache(path)) == 1

    def test_schema_drift_is_a_miss_not_a_crash(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = PersistentDesignCache(path)
        designer = OpticalLinkDesigner(persistent_cache=cache)
        designer.design_point(get_code("h(7,4)"), 1e-12)
        record = json.loads(open(path, encoding="utf-8").readline())
        del record["point"]["code_rate"]  # pretend an old release wrote this
        record["checksum"] = durable.digest({"key": record["key"], "point": record["point"]})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        code = get_code("h(7,4)")
        drifted = PersistentDesignCache(path)
        assert drifted.load((code.name, code.n, code.k, 1e-12)) is None
