"""Route table and admission control for the simulation service's HTTP API.

Transport-free by design: :func:`dispatch` maps ``(method, path, query,
body)`` to ``(status, payload, headers)`` so the whole API surface is unit
testable without a socket, and :mod:`~repro.service.server` stays a thin
stdlib-HTTP shim around it.

Endpoints::

    GET  /healthz            liveness (always answered, even shedding)
    GET  /readyz             readiness: accepting work and supervisor alive
    GET  /metricsz           metrics snapshot + queue counts + shed level
    GET  /design             link-design query (?code=...&target_ber=...)
    GET  /jobs               all known jobs
    POST /jobs               submit a sweep job {"experiment", "options", "jobs"}
    GET  /jobs/<id>          one job's state
    GET  /jobs/<id>/result   a done job's merged result (from the store)
    POST /jobs/<id>/cancel   cancel (queued -> dead, running -> drained dead)

Graceful overload degradation is a four-rung ladder
(:class:`LoadShedder`), driven by queue occupancy and concurrent in-flight
requests, never by failure:

* ``NORMAL`` — everything served;
* ``SHED_SWEEPS`` — *new* sweep submissions get 429 + ``Retry-After``
  (resubmissions of known jobs still join); design queries still solve;
* ``CACHED_ONLY`` — design queries are answered only from cache (a miss
  gets 503 instead of a solve), job status still served;
* ``HEALTH_ONLY`` — only ``/healthz`` answers 200; everything else 503.
  Also the drain state: a terminating service stops admitting work first.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Tuple

from ..coding.registry import available_codes, get_code
from ..exceptions import (
    ConfigurationError,
    JobNotFoundError,
    QueueFullError,
    ReproError,
)
from ..experiments.orchestrator import available_experiments, describe_grid
from .models import Job, JobState

__all__ = ["LoadShedder", "ServiceContext", "dispatch"]

Response = Tuple[int, Any, Dict[str, str]]

#: Upper bound on per-job worker parallelism a request may ask for.
MAX_JOB_WORKERS = 8

#: Concurrent requests at which :class:`LoadShedder` serves cached answers
#: only (and four times that, health checks only).
_MAX_INFLIGHT = 64

#: Queue occupancy (fraction of its depth) at which sweeps are shed.
_SHED_DEPTH_FRACTION = 0.75


class LoadShedder:
    """The service's admission-control ladder (see module docstring)."""

    NORMAL = 0
    SHED_SWEEPS = 1
    CACHED_ONLY = 2
    HEALTH_ONLY = 3

    NAMES = {0: "normal", 1: "shed-sweeps", 2: "cached-only", 3: "health-only"}

    def __init__(self, queue, *, registry=None):
        self.queue = queue
        self.registry = registry
        self.draining = False
        self._inflight = 0
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- pressure
    def enter(self) -> int:
        with self._lock:
            self._inflight += 1
            return self._inflight

    def exit(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def level(self) -> int:
        """The current ladder rung, from queue occupancy and request load."""
        if self.draining:
            return self.HEALTH_ONLY
        inflight = self.inflight
        if inflight >= 4 * _MAX_INFLIGHT:
            return self.HEALTH_ONLY
        if inflight >= _MAX_INFLIGHT:
            return self.CACHED_ONLY
        depth = self.queue.depth()
        if depth >= self.queue.max_depth:
            return self.CACHED_ONLY
        if depth >= _SHED_DEPTH_FRACTION * self.queue.max_depth:
            return self.SHED_SWEEPS
        return self.NORMAL

    def shed(self, what: str) -> None:
        if self.registry is not None:
            self.registry.inc(f"service.shed.{what}")

    def retry_after_s(self) -> float:
        """Backpressure hint: grows with the backlog, at least one second."""
        return float(max(1, self.queue.depth()))


@dataclass
class ServiceContext:
    """Everything a route handler may touch (one per service instance)."""

    queue: Any
    store: Any
    supervisor: Any
    designer: Any
    config: Any
    registry: Any = None
    shedder: LoadShedder = None  # type: ignore[assignment]
    started_s: float = field(default_factory=time.time, init=False)

    def inc(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(name, amount)


def _error(status: int, message: str, **extra) -> Response:
    return status, {"error": message, **extra}, {}


def _unavailable(context: ServiceContext, level: int) -> Response:
    context.shedder.shed("request")
    return _error(
        503,
        f"service is shedding load ({LoadShedder.NAMES[level]})",
        shed_level=LoadShedder.NAMES[level],
    )


# ---------------------------------------------------------------------- routes
def _healthz(context: ServiceContext, match, query, body) -> Response:
    return 200, {"status": "ok", "uptime_s": round(time.time() - context.started_s, 3)}, {}


def _readyz(context: ServiceContext, match, query, body) -> Response:
    level = context.shedder.level()
    supervising = context.supervisor is not None and context.supervisor.is_alive()
    ready = supervising and not context.shedder.draining and level < LoadShedder.CACHED_ONLY
    payload = {
        "ready": ready,
        "shed_level": LoadShedder.NAMES[level],
        "supervisor_alive": supervising,
        "draining": context.shedder.draining,
        "queue": context.queue.counts(),
    }
    return (200 if ready else 503), payload, {}


def _metricsz(context: ServiceContext, match, query, body) -> Response:
    snapshot = context.registry.snapshot() if context.registry is not None else {}
    return (
        200,
        {
            "metrics": snapshot,
            "queue": context.queue.counts(),
            "queue_depth": context.queue.depth(),
            "queue_max_depth": context.queue.max_depth,
            "inflight_requests": context.shedder.inflight,
            "shed_level": LoadShedder.NAMES[context.shedder.level()],
        },
        {},
    )


def _design(context: ServiceContext, match, query, body) -> Response:
    code_name = query.get("code")
    target_text = query.get("target_ber")
    if not code_name or not target_text:
        return _error(400, "design queries need ?code=<name>&target_ber=<float>")
    try:
        target_ber = float(target_text)
    except ValueError:
        return _error(400, f"target_ber {target_text!r} is not a number")
    try:
        code = get_code(code_name)
    except ConfigurationError:
        return _error(400, f"unknown code {code_name!r}", available=available_codes())
    cached = context.designer.cached_point(code, target_ber) is not None
    if not cached and context.shedder.level() >= LoadShedder.CACHED_ONLY:
        # Overloaded: only cache hits are answered; a miss would cost a
        # full crosstalk/brentq solve per request.
        context.shedder.shed("design")
        return _error(
            503,
            "design solver is shedding load; only cached points are served",
            shed_level=LoadShedder.NAMES[context.shedder.level()],
        )
    try:
        point = context.designer.design_point(code, target_ber)
    except ReproError as error:
        return _error(400, str(error))
    context.inc("service.design.cache_hits" if cached else "service.design.solves")
    # Shallow: every field is a str, float or bool, so this is asdict's
    # JSON without its per-field deep copy.
    document = {f.name: getattr(point, f.name) for f in fields(point)}
    return 200, {"cached": cached, "point": document}, {}


def _jobs_list(context: ServiceContext, match, query, body) -> Response:
    return 200, {"jobs": [job.public_view() for job in context.queue.jobs()]}, {}


def _jobs_submit(context: ServiceContext, match, query, body) -> Response:
    if not isinstance(body, dict):
        return _error(400, "job submissions need a JSON object body")
    experiment = body.get("experiment")
    if not isinstance(experiment, str):
        return _error(
            400, "missing experiment name", available=available_experiments()
        )
    options = body.get("options")
    if options is not None and not isinstance(options, dict):
        return _error(400, "options must be a JSON object")
    workers = body.get("jobs", 1)
    # JSON ``true`` arrives as a bool, which is an int subclass.
    if type(workers) is not int or not 1 <= workers <= MAX_JOB_WORKERS:
        return _error(400, f"jobs must be an integer in [1, {MAX_JOB_WORKERS}]")
    try:
        grid = describe_grid(experiment, context.config, options)
    except ReproError as error:
        return _error(400, str(error))
    job_id = grid.fingerprint

    try:
        existing = context.queue.get(job_id)
    except JobNotFoundError:
        existing = None
    if existing is None:
        # Admission control applies to *new* work only — joining an
        # existing job costs nothing.
        level = context.shedder.level()
        if level >= LoadShedder.SHED_SWEEPS:
            context.shedder.shed("submit")
            return (
                429,
                {
                    "error": "service is shedding new sweep jobs",
                    "shed_level": LoadShedder.NAMES[level],
                },
                {"Retry-After": f"{context.shedder.retry_after_s():.0f}"},
            )
    elif existing.state == JobState.DONE and context.store.get(job_id) is None:
        # The stored result was lost or quarantined since the job finished:
        # self-heal by re-queueing the work.
        existing = context.queue.resubmit(job_id)
        context.inc("service.jobs.resubmitted")
        return 202, {**existing.public_view(), "created": False, "cached": False}, {}

    job = Job(
        job_id=job_id,
        experiment=experiment,
        options=grid.options,
        jobs=workers,
    )
    try:
        job, created = context.queue.submit(job)
    except QueueFullError as error:
        context.shedder.shed("submit")
        return (
            429,
            {"error": str(error), "queue_depth": error.depth},
            {"Retry-After": f"{error.retry_after_s:.0f}"},
        )
    if created:
        context.inc("service.jobs.submitted")
    else:
        context.inc("service.jobs.joined")
    cached = job.state == JobState.DONE
    status = 202 if created else 200
    return status, {**job.public_view(), "created": created, "cached": cached}, {}


def _job_get(context: ServiceContext, match, query, body) -> Response:
    try:
        job = context.queue.get(match.group("job_id"))
    except JobNotFoundError as error:
        return _error(404, str(error))
    view = job.public_view()
    view["result_ready"] = job.state == JobState.DONE
    return 200, view, {}


def _job_result(context: ServiceContext, match, query, body) -> Response:
    job_id = match.group("job_id")
    try:
        job = context.queue.get(job_id)
    except JobNotFoundError as error:
        return _error(404, str(error))
    if job.state != JobState.DONE:
        return _error(409, f"job is {job.state}, not done", state=job.state)
    payload = context.store.get(job_id)
    if payload is None:
        # Damage discovered at read time: the store quarantined the
        # artefact; re-queue the work and tell the client to come back.
        job = context.queue.resubmit(job_id)
        context.inc("service.jobs.resubmitted")
        return (
            503,
            {"error": "stored result was damaged; job re-queued", "state": job.state},
            {"Retry-After": "5"},
        )
    context.inc("service.results.served")
    return 200, {"job_id": job_id, "state": job.state, "result": payload}, {}


def _job_cancel(context: ServiceContext, match, query, body) -> Response:
    job_id = match.group("job_id")
    if context.supervisor is None:
        return _error(503, "no supervisor is running")
    try:
        job = context.supervisor.cancel_job(job_id)
    except JobNotFoundError as error:
        return _error(404, str(error))
    return 200, job.public_view(), {}


#: ``(method, path regex, handler, minimum shed level at which it is cut)``.
#: A request is served only while ``shedder.level() < cut``; ``/healthz``
#: is never cut.
_ROUTES: tuple[tuple[str, re.Pattern, Callable, int], ...] = (
    ("GET", re.compile(r"^/healthz$"), _healthz, 99),
    ("GET", re.compile(r"^/readyz$"), _readyz, LoadShedder.HEALTH_ONLY),
    ("GET", re.compile(r"^/metricsz$"), _metricsz, LoadShedder.HEALTH_ONLY),
    ("GET", re.compile(r"^/design$"), _design, LoadShedder.HEALTH_ONLY),
    ("GET", re.compile(r"^/jobs$"), _jobs_list, LoadShedder.HEALTH_ONLY),
    ("POST", re.compile(r"^/jobs$"), _jobs_submit, LoadShedder.HEALTH_ONLY),
    ("GET", re.compile(r"^/jobs/(?P<job_id>[0-9a-f]{8,64})$"), _job_get, LoadShedder.HEALTH_ONLY),
    (
        "GET",
        re.compile(r"^/jobs/(?P<job_id>[0-9a-f]{8,64})/result$"),
        _job_result,
        LoadShedder.HEALTH_ONLY,
    ),
    (
        "POST",
        re.compile(r"^/jobs/(?P<job_id>[0-9a-f]{8,64})/cancel$"),
        _job_cancel,
        LoadShedder.HEALTH_ONLY,
    ),
)


def dispatch(
    context: ServiceContext,
    method: str,
    path: str,
    query: Dict[str, str],
    body: Any,
) -> Response:
    """Route one request; returns ``(status, JSON payload, extra headers)``."""
    context.inc("service.requests")
    path_known = False
    for route_method, pattern, handler, cut_level in _ROUTES:
        match = pattern.match(path)
        if match is None:
            continue
        path_known = True
        if route_method != method:
            continue
        level = context.shedder.level()
        if level >= cut_level:
            return _unavailable(context, level)
        return handler(context, match, query, body)
    if path_known:
        return _error(405, f"{method} not allowed on {path}")
    return _error(404, f"no route for {path}")
