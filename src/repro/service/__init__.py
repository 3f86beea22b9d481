"""Simulation-as-a-service layer: durable queue, supervised workers, HTTP API.

This package turns the one-shot ``repro-experiments`` CLI into a
long-running daemon (ROADMAP item 2).  Its parts compose the robustness
machinery built in earlier PRs into a service whose every failure mode has
a defined recovery path:

* :mod:`~repro.service.models` — the job record and its state machine
  (``queued -> running -> done/failed/dead``);
* :mod:`~repro.service.store` — content-addressed results store and the
  persistent tier of :meth:`repro.link.design.OpticalLinkDesigner.design_point`;
* :mod:`~repro.service.queue` — durable job queue (one record file per
  job) with idempotent fingerprint-keyed submission and crash recovery on
  startup;
* :mod:`~repro.service.supervisor` — runs jobs through
  :func:`repro.experiments.orchestrator.run_experiment` in forked child
  workers with per-job timeouts, bounded exponential-backoff retries and a
  poison-job circuit breaker;
* :mod:`~repro.service.routes` / :mod:`~repro.service.server` — the
  stdlib ``ThreadingHTTPServer`` JSON API with admission control, a
  load-shedding ladder, ``/healthz``/``/readyz`` and clean SIGTERM drain.

The queue, the store and the cache keep their files as
:mod:`repro.durable` records: checksummed, replaced atomically, and
quarantined to ``*.corrupt`` when damaged.

Quick in-process start (the ``repro-serve`` console script wraps the same
object)::

    from repro.service import SimulationService

    service = SimulationService(data_dir="/tmp/repro-service", port=0)
    service.start()          # background threads; service.port is bound
    ...
    service.stop()           # drain: finalize checkpoints, persist queue
"""

from .models import Job, JobState
from .queue import DurableJobQueue
from .server import ServiceConfig, SimulationService
from .store import PersistentDesignCache, ResultsStore
from .supervisor import Supervisor

__all__ = [
    "Job",
    "JobState",
    "DurableJobQueue",
    "PersistentDesignCache",
    "ResultsStore",
    "ServiceConfig",
    "SimulationService",
    "Supervisor",
]
