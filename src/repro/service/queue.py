"""Durable job queue: one atomic, checksummed JSON file per job.

Durability model — each job lives at ``<spool>/<job_id>.json`` as one
:mod:`repro.durable` record, and every state transition replaces the file
atomically, so the on-disk queue is consistent after a crash at *any*
instant.  On startup :meth:`DurableJobQueue.recover` replays the spool
directory:

* records that fail their checksum (truncation, bit flips, garbage), do
  not parse as a job or name another job than their file are quarantined
  to ``*.corrupt`` and forgotten — the job is simply gone, which is safe
  because submission is idempotent;
* jobs found ``running`` were interrupted mid-flight by the previous
  process's death: they are re-queued (their partial shard checkpoints
  remain on disk and the orchestrator's ``resume=True`` salvages them);
* ``failed`` jobs whose retry backoff was pending are re-queued too.

Submission is keyed by the sweep's grid fingerprint
(:attr:`repro.experiments.orchestrator.ExperimentGrid.fingerprint`):
submitting an identical request returns the existing job — a cache hit if
it is ``done``, a join onto the in-flight job otherwise.  Admission is
bounded: when ``queued + running + failed`` reaches ``max_depth`` new work
is rejected with :class:`~repro.exceptions.QueueFullError` carrying a
``Retry-After`` hint.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Callable, Dict, List

from .. import durable
from ..exceptions import ConfigurationError, JobNotFoundError, QueueFullError
from .models import Job, JobState

__all__ = ["DurableJobQueue"]

logger = logging.getLogger("repro.service.queue")


class DurableJobQueue:
    """Thread-safe durable queue over a spool directory of job records."""

    def __init__(self, spool_dir: str, *, max_depth: int = 64):
        if max_depth < 1:
            raise ConfigurationError("queue depth bound must be at least 1")
        self.spool_dir = spool_dir
        self.max_depth = int(max_depth)
        os.makedirs(spool_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        #: Ids of the non-terminal jobs, kept current by :meth:`_record`:
        #: ``depth()`` runs on every request, and ``_jobs`` keeps every
        #: finished job for the life of the process.
        self._active: set = set()
        #: Signalled whenever a job becomes claimable (submit, retry, recover).
        self.work_available = threading.Event()
        self.recover()

    # ------------------------------------------------------------- persistence
    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.spool_dir, f"{job_id}.json")

    def _record(self, job: Job) -> None:
        """Make ``job`` its id's current record (caller holds the lock)."""
        self._jobs[job.job_id] = job
        if job.terminal:
            self._active.discard(job.job_id)
        else:
            self._active.add(job.job_id)

    @staticmethod
    def _document(job_dict: dict) -> dict:
        return {"kind": "job", "job": job_dict, "checksum": durable.digest(job_dict)}

    def _persist(self, job: Job) -> None:
        """Atomically rewrite one job's record (caller holds the lock)."""
        document = self._document(job.to_dict())
        durable.write_atomic(self._job_path(job.job_id), durable.to_line(document))

    def recover(self) -> List[str]:
        """Replay the spool directory; returns the ids of re-queued jobs.

        Damaged records are quarantined; interrupted (``running``) and
        backoff-pending (``failed``) jobs return to ``queued`` so the
        supervisor picks them up again.  Safe to call on a live queue
        (it is invoked from ``__init__`` and by restart tests).
        """
        requeued: List[str] = []
        with self._lock:
            self._jobs.clear()
            self._active.clear()
            for name in sorted(os.listdir(self.spool_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self.spool_dir, name)
                job = self._read_record(path)
                if job is None:
                    continue
                if job.state in (JobState.RUNNING, JobState.FAILED):
                    job = job.transitioned(
                        JobState.QUEUED, error=job.error, not_before_s=0.0
                    )
                    self._persist(job)
                    requeued.append(job.job_id)
                    logger.info(
                        "recovered interrupted job %s (%s) -> queued",
                        job.job_id,
                        job.experiment,
                    )
                elif job.state == JobState.QUEUED and job.not_before_s:
                    # Backoff deadlines are monotonic-clock values of the
                    # process that wrote them — meaningless (and possibly
                    # starving) in this process.  Forgetting the pending
                    # backoff on restart is safe: one immediate retry.
                    job = job.rescheduled(0.0)
                    self._persist(job)
                self._record(job)
            if any(job.state == JobState.QUEUED for job in self._jobs.values()):
                self.work_available.set()
        return requeued

    def _read_record(self, path: str) -> Job | None:
        expected_id = os.path.basename(path)[: -len(".json")]

        def verify(document: dict) -> Job | None:
            job_dict = document.get("job")
            if document != self._document(job_dict):
                return None
            try:
                job = Job.from_dict(job_dict)
            except (ConfigurationError, KeyError, TypeError, ValueError):
                return None
            return job if job.job_id == expected_id else None

        return durable.read_document(path, verify)

    # -------------------------------------------------------------- submission
    def depth(self) -> int:
        """Jobs occupying queue capacity (everything non-terminal)."""
        with self._lock:
            return len(self._active)

    def submit(self, job: Job) -> tuple[Job, bool]:
        """Admit ``job`` (or join the existing one); returns ``(job, created)``.

        Idempotent on ``job_id``: an existing non-terminal or ``done`` job
        is returned as-is (``created=False``); a ``dead`` job stays dead —
        poison grids are not resurrected by resubmission.  A full queue
        raises :class:`~repro.exceptions.QueueFullError` whose
        ``retry_after_s`` scales with the backlog.
        """
        with self._lock:
            existing = self._jobs.get(job.job_id)
            if existing is not None:
                return existing, False
            occupancy = len(self._active)
            if occupancy >= self.max_depth:
                raise QueueFullError(
                    occupancy, self.max_depth, retry_after_s=float(max(1, occupancy))
                )
            self._persist(job)
            self._record(job)
            if job.state == JobState.QUEUED:
                self.work_available.set()
            return job, True

    def resubmit(self, job_id: str) -> Job:
        """Re-queue a terminal job whose stored result was lost or corrupt."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(job_id)
            job = job.requeued()
            self._persist(job)
            self._record(job)
            self.work_available.set()
            return job

    # --------------------------------------------------------------- lifecycle
    def claim_next(self, now_s: float | None = None) -> Job | None:
        """Move the oldest eligible ``queued`` job to ``running`` and return it.

        Jobs whose retry backoff has not elapsed (``not_before_s`` in the
        future) are skipped; ``None`` means nothing is claimable right now.
        Deadlines live on the **monotonic** clock (``time.monotonic``), so
        an NTP step or wall-clock jump can neither fire a backoff early
        nor starve it; :meth:`recover` resets deadlines written by a dead
        process, whose monotonic epoch was different.
        """
        now = time.monotonic() if now_s is None else now_s
        with self._lock:
            eligible = [
                job
                for job in self._jobs.values()
                if job.state == JobState.QUEUED and job.not_before_s <= now
            ]
            if not eligible:
                if not any(
                    job.state == JobState.QUEUED for job in self._jobs.values()
                ):
                    self.work_available.clear()
                return None
            job = min(eligible, key=lambda item: (item.created_s, item.job_id))
            job = job.transitioned(JobState.RUNNING)
            self._persist(job)
            self._record(job)
            return job

    def next_retry_delay_s(self, now_s: float | None = None) -> float | None:
        """Seconds until the earliest backoff-pending queued job is ready."""
        now = time.monotonic() if now_s is None else now_s
        with self._lock:
            pending = [
                job.not_before_s - now
                for job in self._jobs.values()
                if job.state == JobState.QUEUED and job.not_before_s > now
            ]
        return min(pending) if pending else None

    def transition(
        self,
        job_id: str,
        state: str,
        *,
        error: str | None = None,
        not_before_s: float | None = None,
        charge_attempt: bool = False,
        charge_deterministic: bool = False,
        before_publish: Callable[[Job], None] | None = None,
    ) -> Job:
        """Persist one state transition and return the updated record.

        ``before_publish`` runs on the new record after it is durable and
        before any reader of the queue can see it, so whatever it writes
        exists by the time a client observes the new state.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(job_id)
            job = job.transitioned(
                state,
                error=error,
                not_before_s=not_before_s,
                charge_attempt=charge_attempt,
                charge_deterministic=charge_deterministic,
            )
            self._persist(job)
            try:
                if before_publish is not None:
                    before_publish(job)
            finally:
                # Memory follows the durable record even when the hook fails.
                self._record(job)
                if state == JobState.QUEUED:
                    self.work_available.set()
            return job

    # ------------------------------------------------------------------ queries
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: (job.created_s, job.job_id))

    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero-filled, so consumers see every state)."""
        counts = {state: 0 for state in JobState.ALL}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts
