"""Job records and the service's job-lifecycle state machine.

A job is one sweep request — an experiment name plus its grid options —
identified by the :class:`~repro.experiments.orchestrator.ExperimentGrid`
fingerprint of the sweep it describes.  Identity by fingerprint is what
makes submission idempotent: two requests for the same grid are the same
job, and a finished job's result is a cache hit for every later identical
request.

States and legal transitions::

    queued ──► running ──► done          (result verified in the store)
      ▲           │
      │           ├──────► failed       (attempt failed; retry scheduled)
      │           │           │
      │           │           ▼
      └───────────┴──────── queued      (backoff elapsed, re-claimed)
                  │
                  └──────► dead         (retry budget exhausted, poison
                                         grid, or cancelled)

``done`` and ``dead`` are terminal.  A ``done`` job whose stored result is
later found damaged is resubmittable: the queue re-queues it instead of
serving the quarantined artefact.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict

from ..exceptions import ConfigurationError

__all__ = ["Job", "JobState"]


class JobState:
    """The five job states (plain strings so records stay JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    DEAD = "dead"

    ALL = (QUEUED, RUNNING, DONE, FAILED, DEAD)
    #: States a job can legally move to from each state.  Terminal states
    #: allow re-queueing only through :meth:`Job.requeued` (damage
    #: recovery), which is deliberately not in this table.
    TRANSITIONS = {
        QUEUED: (RUNNING, DEAD),
        RUNNING: (DONE, FAILED, DEAD, QUEUED),  # QUEUED: drain/crash recovery
        FAILED: (QUEUED, DEAD),
        DONE: (),
        DEAD: (),
    }


@dataclass(frozen=True)
class Job:
    """One durable job record (immutable; transitions produce new records)."""

    job_id: str
    experiment: str
    options: dict | None
    state: str = JobState.QUEUED
    #: Worker parallelism the sweep runs at inside its child process.
    jobs: int = 1
    #: Attempts charged so far (transient failures: crash, timeout, kill).
    attempts: int = 0
    #: Deterministic failures observed (the circuit breaker's counter).
    deterministic_failures: int = 0
    #: Monotonic-clock deadline (``time.monotonic`` domain) before which
    #: the queue must not hand the job out again (exponential-backoff
    #: retries).  ``0.0`` means immediately.  Only meaningful inside the
    #: process that wrote it — queue recovery resets it on restart.
    not_before_s: float = 0.0
    created_s: float = field(default_factory=time.time)
    updated_s: float = field(default_factory=time.time)
    error: str | None = None

    def transitioned(
        self,
        state: str,
        *,
        error: str | None = None,
        not_before_s: float | None = None,
        charge_attempt: bool = False,
        charge_deterministic: bool = False,
    ) -> "Job":
        """A copy of the job moved to ``state`` (legality-checked)."""
        if state not in JobState.ALL:
            raise ConfigurationError(f"unknown job state {state!r}")
        if state not in JobState.TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.job_id} cannot move {self.state} -> {state}"
            )
        return replace(
            self,
            state=state,
            error=error,
            not_before_s=self.not_before_s if not_before_s is None else not_before_s,
            attempts=self.attempts + (1 if charge_attempt else 0),
            deterministic_failures=self.deterministic_failures
            + (1 if charge_deterministic else 0),
            updated_s=time.time(),
        )

    def rescheduled(self, not_before_s: float) -> "Job":
        """The same record with only its backoff deadline replaced.

        Not a state transition — used by queue recovery to forget a dead
        process's monotonic-clock backoff deadline.
        """
        return replace(self, not_before_s=float(not_before_s), updated_s=time.time())

    def requeued(self) -> "Job":
        """A fresh ``queued`` copy of a terminal job (damage resubmission).

        Used when a ``done`` job's stored result turns out corrupt (the
        store quarantined it) — the work must be redone, and the retry
        counters restart because the new run is a new campaign.
        """
        return replace(
            self,
            state=JobState.QUEUED,
            attempts=0,
            deterministic_failures=0,
            not_before_s=0.0,
            error=None,
            updated_s=time.time(),
        )

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.DEAD)

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        fields = {
            "job_id": str(data["job_id"]),
            "experiment": str(data["experiment"]),
            "options": data.get("options"),
            "state": str(data["state"]),
            "jobs": int(data.get("jobs", 1)),
            "attempts": int(data.get("attempts", 0)),
            "deterministic_failures": int(data.get("deterministic_failures", 0)),
            "not_before_s": float(data.get("not_before_s", 0.0)),
            "created_s": float(data.get("created_s", 0.0)),
            "updated_s": float(data.get("updated_s", 0.0)),
            "error": data.get("error"),
        }
        if fields["state"] not in JobState.ALL:
            raise ConfigurationError(f"unknown job state {fields['state']!r}")
        return cls(**fields)

    def public_view(self) -> Dict[str, Any]:
        """The fields the HTTP API exposes for this job."""
        return {
            "job_id": self.job_id,
            "experiment": self.experiment,
            "options": self.options,
            "state": self.state,
            "jobs": self.jobs,
            "attempts": self.attempts,
            "deterministic_failures": self.deterministic_failures,
            "created_s": self.created_s,
            "updated_s": self.updated_s,
            "error": self.error,
        }
