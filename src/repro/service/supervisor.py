"""Supervised job execution: forked workers, timeouts, backoff, poison jobs.

The supervisor is a background thread that claims jobs off the
:class:`~repro.service.queue.DurableJobQueue` and runs each one through
:func:`repro.experiments.orchestrator.run_experiment` **in a forked child
process**.  The process boundary is the robustness boundary: a job that
SIGKILLs its worker, segfaults, leaks memory until the OOM killer fires or
simply hangs cannot take the service down — the supervisor observes the
child's death, charges an attempt and retries.

Recovery semantics per failure mode:

* **worker death / crash** (nonzero or signal exit): the attempt is
  charged, the job re-queued with exponential backoff plus deterministic
  jitter; the child checkpointed after every completed shard, so the
  retry resumes (``resume=True``) and recomputes only what was lost —
  a recovered job's result is byte-identical to an uninterrupted run
  because shard seeds are position-keyed.
* **hang**: bounded by ``job_timeout_s``; the child gets SIGTERM (a grace
  window in which the orchestrator's cancellation hook finalizes the
  checkpoint), then SIGKILL.  Charged and retried like a crash.
* **deterministic failure** (an exception inside the sweep: bad grid,
  in-shard bug): retrying cannot help forever.  The circuit breaker marks
  the job ``dead`` (poison) after ``max_deterministic_failures``
  occurrences instead of burning the full transient-retry budget.
* **store damage**: a worker that exits cleanly but whose result does not
  verify in the store (truncated mid-write, disk corruption) counts as a
  failed attempt — the store has already quarantined the artefact.
* **drain** (service shutdown): the running child gets SIGTERM, finishes
  its current shard, writes the final checkpoint and exits with the
  *cancelled* code; the job returns to ``queued`` without being charged,
  so the next service start resumes it.

Every finished job leaves a lifecycle manifest
(``job-<id>.manifest.json``; see :func:`repro.obs.manifest.build_job_manifest`)
recording each attempt and its outcome, written before the queue publishes
the terminal state, so a client that sees the job finished can read it.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import signal
import threading
import time
from typing import Dict, List, Optional

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError, SweepCancelled
from ..experiments.orchestrator import import_all_grids, run_experiment
from ..obs import manifest as obs_manifest
from .models import Job, JobState
from .queue import DurableJobQueue
from .store import ResultsStore

__all__ = ["Supervisor", "EXIT_TRANSIENT", "EXIT_DETERMINISTIC", "EXIT_CANCELLED"]

logger = logging.getLogger("repro.service.supervisor")

#: Worker exit codes the supervisor dispatches on.
EXIT_TRANSIENT = 2
EXIT_DETERMINISTIC = 3
EXIT_CANCELLED = 4

#: Seconds a worker gets to exit after SIGTERM, and again after SIGKILL.
_TERM_GRACE_S = 5.0

#: Deterministic failures after which a job is dead (poison).
_MAX_DETERMINISTIC_FAILURES = 2

#: Retry backoff: base and cap of the exponential delay (s).
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 30.0

#: Set by the worker's SIGTERM/SIGINT handler; polled by the orchestrator's
#: cancellation hook between shards.
_WORKER_CANCELLED = [False]


def _worker_signal_handler(signum, frame) -> None:
    _WORKER_CANCELLED[0] = True


def _job_worker(
    experiment: str,
    options: dict | None,
    jobs: int,
    config: PaperConfig,
    checkpoint_dir: str,
    store_root: str,
    fingerprint: str,
) -> None:
    """Forked child entry point: run the sweep, verify-write the result.

    Exit codes: ``0`` success (result persisted), :data:`EXIT_CANCELLED`
    clean cancellation after a SIGTERM (checkpoint finalized),
    :data:`EXIT_DETERMINISTIC` an in-sweep exception retries cannot fix,
    :data:`EXIT_TRANSIENT` an environmental error worth retrying.
    """
    # The fork inherits the parent's registry with every grid already
    # imported (see Supervisor.__init__), test-registered grids included.
    _WORKER_CANCELLED[0] = False
    signal.signal(signal.SIGTERM, _worker_signal_handler)
    signal.signal(signal.SIGINT, _worker_signal_handler)
    try:
        text, rows = run_experiment(
            experiment,
            config=config,
            jobs=jobs,
            options=options,
            checkpoint_dir=checkpoint_dir,
            resume=True,
            manifest_dir=checkpoint_dir,
            cancel=lambda: _WORKER_CANCELLED[0],
        )
        ResultsStore(store_root).put(fingerprint, {"text": text, "rows": rows})
    except SweepCancelled:
        os._exit(EXIT_CANCELLED)
    except (MemoryError, OSError) as error:
        logger.error("job worker transient failure: %s", error)
        os._exit(EXIT_TRANSIENT)
    except BaseException as error:  # noqa: BLE001 - classified via exit code
        # Anything the sweep itself raised is deterministic: the same grid
        # will raise it again (the orchestrator already absorbed transient
        # worker faults internally before letting an exception surface).
        logger.error("job worker deterministic failure: %s: %s", type(error).__name__, error)
        os._exit(EXIT_DETERMINISTIC)
    os._exit(0)


class Supervisor(threading.Thread):
    """Claims queued jobs and runs them in supervised forked workers."""

    def __init__(
        self,
        queue: DurableJobQueue,
        store: ResultsStore,
        *,
        work_dir: str,
        config: PaperConfig = DEFAULT_CONFIG,
        job_timeout_s: float = 600.0,
        max_attempts: int = 3,
        registry=None,
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the service supervisor requires the fork start method"
            )
        if job_timeout_s <= 0.0:
            raise ConfigurationError("job timeout must be positive")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        # Import every grid on this thread, before the supervisor or any HTTP
        # thread starts, so a fork never copies a half-held import lock and a
        # child never imports its grid module itself.
        import_all_grids()
        super().__init__(name="repro-service-supervisor", daemon=True)
        self.queue = queue
        self.store = store
        self.work_dir = work_dir
        self.config = config
        self.job_timeout_s = float(job_timeout_s)
        self.max_attempts = int(max_attempts)
        self.registry = registry
        self._context = multiprocessing.get_context("fork")
        self._stop_event = threading.Event()
        #: Guards ``_active`` and ``_cancel_requested`` — both are touched
        #: by API threads (cancel/stop) while the supervisor loop runs.
        self._active_lock = threading.Lock()
        self._active: "tuple[str, multiprocessing.process.BaseProcess] | None" = None
        self._cancel_requested: set[str] = set()
        #: attempt audit trail per job id, folded into the job manifest.
        self._attempt_log: Dict[str, List[dict]] = {}
        os.makedirs(work_dir, exist_ok=True)

    # ------------------------------------------------------------------- control
    def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Drain and stop: SIGTERM the running worker, re-queue its job.

        The worker's cancellation hook finalizes the checkpoint before it
        exits, so the re-queued job resumes from exactly the shards that
        landed.  Blocks until the supervisor thread exits (bounded by
        ``drain_timeout_s`` plus the TERM/KILL grace).
        """
        self._stop_event.set()
        self.queue.work_available.set()  # wake the idle wait immediately
        with self._active_lock:
            active = self._active
        if active is not None:
            _job_id, process = active
            self._terminate(process)
        self.join(timeout=drain_timeout_s + _TERM_GRACE_S + self.job_timeout_s)

    def cancel_job(self, job_id: str) -> Job:
        """Cancel one job: queued jobs die immediately, running ones drain."""
        job = self.queue.get(job_id)
        if job.state == JobState.QUEUED:
            return self.queue.transition(job_id, JobState.DEAD, error="cancelled by request")
        if job.state == JobState.RUNNING:
            with self._active_lock:
                self._cancel_requested.add(job_id)
                active = self._active
            if active is not None and active[0] == job_id:
                self._terminate(active[1])
            return self.queue.get(job_id)
        return job

    def active_worker_pid(self) -> Optional[int]:
        """PID of the currently forked job worker (chaos-test hook)."""
        with self._active_lock:
            if self._active is None:
                return None
            return self._active[1].pid

    def job_dir(self, job_id: str) -> str:
        """Per-job working directory (checkpoints, sweep + job manifests)."""
        return os.path.join(self.work_dir, job_id)

    # --------------------------------------------------------------------- loop
    def run(self) -> None:  # pragma: no cover - exercised via service tests
        while not self._stop_event.is_set():
            job = self.queue.claim_next()
            if job is None:
                retry_in = self.queue.next_retry_delay_s()
                timeout = 0.05 if retry_in is None else min(0.05, max(retry_in, 0.005))
                self.queue.work_available.wait(timeout=timeout)
                continue
            try:
                self._run_job(job)
            except Exception:  # noqa: BLE001 - the supervisor must survive
                logger.exception("supervisor failed while running job %s", job.job_id)
                try:
                    self.queue.transition(
                        job.job_id,
                        JobState.DEAD,
                        error="supervisor error; see service log",
                    )
                except Exception:  # noqa: BLE001
                    logger.exception(
                        "could not mark job %s dead after a supervisor error",
                        job.job_id,
                    )

    # ----------------------------------------------------------------- attempts
    def _terminate(self, process) -> None:
        """SIGTERM, grace, then SIGKILL; never raises on an already-dead child."""
        try:
            process.terminate()
        except (OSError, ValueError):
            return
        process.join(timeout=_TERM_GRACE_S)
        if process.is_alive():
            try:
                process.kill()
            except (OSError, ValueError):
                pass
            process.join(timeout=_TERM_GRACE_S)

    def _backoff_delay_s(self, job: Job) -> float:
        """Exponential backoff with deterministic per-(job, attempt) jitter."""
        exponent = max(0, job.attempts + job.deterministic_failures - 1)
        delay = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0**exponent))
        jitter = random.Random(f"{job.job_id}:{exponent}").random()
        return delay * (1.0 + 0.25 * jitter)

    def _inc(self, name: str) -> None:
        if self.registry is not None:
            self.registry.inc(name)

    def _record_attempt(self, job_id: str, outcome: str, detail: dict) -> None:
        self._attempt_log.setdefault(job_id, []).append(
            {"outcome": outcome, "at_s": time.time(), **detail}
        )

    def _run_job(self, job: Job) -> None:
        checkpoint_dir = self.job_dir(job.job_id)
        os.makedirs(checkpoint_dir, exist_ok=True)
        started = time.perf_counter()
        process = self._context.Process(
            target=_job_worker,
            args=(
                job.experiment,
                job.options,
                job.jobs,
                self.config,
                checkpoint_dir,
                self.store.root,
                job.job_id,
            ),
            name=f"repro-job-{job.job_id[:12]}",
        )
        process.start()
        with self._active_lock:
            self._active = (job.job_id, process)
        if self._stop_event.is_set():
            # stop() may have missed the child in the claim->fork window.
            self._terminate(process)
        try:
            process.join(timeout=self.job_timeout_s)
            timed_out = process.is_alive()
            if timed_out:
                logger.warning(
                    "job %s exceeded its %gs timeout; terminating worker %s",
                    job.job_id,
                    self.job_timeout_s,
                    process.pid,
                )
                self._terminate(process)
            exitcode = process.exitcode
        finally:
            with self._active_lock:
                self._active = None
        elapsed = time.perf_counter() - started
        detail = {"exitcode": exitcode, "elapsed_s": round(elapsed, 6), "pid": process.pid}

        if self._stop_event.is_set() and exitcode != 0:
            # Drain: the worker finalized its checkpoint (clean cancel) or
            # was killed after the grace window; either way the job goes
            # back uncharged so the next service start resumes it.
            self._record_attempt(job.job_id, "drained", detail)
            self.queue.transition(job.job_id, JobState.QUEUED, error="interrupted by shutdown")
            return
        with self._active_lock:
            cancel_requested = job.job_id in self._cancel_requested
            self._cancel_requested.discard(job.job_id)
        if cancel_requested:
            self._record_attempt(job.job_id, "cancelled", detail)
            self._finalize(job.job_id, JobState.DEAD, error="cancelled by request")
            self._inc("service.jobs.cancelled")
            return

        if timed_out:
            self._record_attempt(job.job_id, "timeout", detail)
            self._charge_failure(job, f"worker exceeded the {self.job_timeout_s:g}s job timeout")
            self._inc("service.jobs.timeouts")
            return
        if exitcode == 0:
            if self.store.get(job.job_id) is not None:
                self._record_attempt(job.job_id, "done", detail)
                self._finalize(job.job_id, JobState.DONE)
                self._inc("service.jobs.completed")
                logger.info("job %s (%s) done in %.2fs", job.job_id, job.experiment, elapsed)
            else:
                # The worker believed it succeeded but the artefact does not
                # verify (torn write, disk damage); the store has already
                # quarantined whatever was there.
                self._record_attempt(job.job_id, "store-verification-failed", detail)
                self._charge_failure(job, "result failed store verification")
            return
        if exitcode == EXIT_CANCELLED:
            # SIGTERM from outside the service (operator); not a failure.
            self._record_attempt(job.job_id, "interrupted", detail)
            self.queue.transition(job.job_id, JobState.QUEUED, error="worker interrupted")
            return
        if exitcode == EXIT_DETERMINISTIC:
            self._record_attempt(job.job_id, "deterministic-error", detail)
            self._charge_failure(job, "deterministic sweep failure", deterministic=True)
            return
        reason = (
            f"worker died with signal {-exitcode}"
            if exitcode is not None and exitcode < 0
            else f"worker exited with code {exitcode}"
        )
        self._record_attempt(job.job_id, "crashed", detail)
        self._charge_failure(job, reason)

    def _charge_failure(self, job: Job, reason: str, *, deterministic: bool = False) -> None:
        """Charge one failed attempt; retry with backoff or trip the breaker."""
        failed = self.queue.transition(
            job.job_id,
            JobState.FAILED,
            error=reason,
            charge_attempt=not deterministic,
            charge_deterministic=deterministic,
        )
        exhausted = (
            failed.deterministic_failures >= _MAX_DETERMINISTIC_FAILURES
            if deterministic
            else failed.attempts >= self.max_attempts
        )
        if exhausted:
            kind = "poison (deterministic failures)" if deterministic else "retries exhausted"
            logger.error("job %s is dead: %s (%s)", job.job_id, kind, reason)
            self._finalize(failed.job_id, JobState.DEAD, error=f"{reason}; {kind}")
            self._inc("service.jobs.dead")
            return
        delay = self._backoff_delay_s(failed)
        logger.warning(
            "job %s attempt failed (%s); retrying in %.2fs", job.job_id, reason, delay
        )
        # Monotonic, not wall clock: an NTP step or DST jump must never
        # fire a backoff early or starve it (wall time stays confined to
        # the human-facing manifest/record timestamps).
        self.queue.transition(
            failed.job_id,
            JobState.QUEUED,
            error=reason,
            not_before_s=time.monotonic() + delay,
        )
        self._inc("service.jobs.retried")

    def _finalize(self, job_id: str, state: str, *, error: Optional[str] = None) -> None:
        """Move a job to a terminal ``state``, its manifest written first.

        The manifest lands before the queue publishes the state, so a client
        that sees the job finished can read its manifest at once.
        """
        self.queue.transition(job_id, state, error=error, before_publish=self._write_manifest)

    def _write_manifest(self, job: Job) -> None:
        """Write the terminal job's lifecycle manifest next to its checkpoints."""
        attempts = self._attempt_log.pop(job.job_id, [])
        manifest = obs_manifest.build_job_manifest(
            job=job.public_view(),
            attempts=attempts,
            result_path=(
                self.store.path(job.job_id) if job.state == JobState.DONE else None
            ),
        )
        path = obs_manifest.job_manifest_path(self.job_dir(job.job_id), job.job_id)
        try:
            obs_manifest.write_manifest(path, manifest)
        except OSError:
            logger.warning("could not write job manifest %s", path)
