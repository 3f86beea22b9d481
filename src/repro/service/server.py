"""The long-running simulation service daemon (``repro-serve``).

:class:`SimulationService` composes the durable queue, the results store,
the supervised worker and the route table into one object with a
``start()``/``stop()`` lifecycle, served over the stdlib
``ThreadingHTTPServer`` (no new runtime dependencies).  The data directory
layout::

    <data_dir>/queue/      one checksummed JSON record per job
    <data_dir>/results/    content-addressed result documents
    <data_dir>/jobs/<id>/  per-job checkpoints + sweep/job manifests
    <data_dir>/design-cache.jsonl   persistent link-design points
    <data_dir>/config.json  the PaperConfig everything above was computed under

Shutdown is a *drain*, in order: stop admitting work (the shedder reports
``health-only``, ``/readyz`` flips to 503), SIGTERM the running worker so
it finalizes its checkpoint and re-queues its job, persist everything,
then stop the HTTP loop.  ``repro-serve`` wires SIGTERM/SIGINT to that
drain, so an orchestrated restart (systemd, Kubernetes, ctrl-C) never
loses completed work — the next start recovers the queue and resumes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import signal
import sys
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .. import durable
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..link.design import OpticalLinkDesigner
from ..obs import metrics as obs_metrics
from ..obs.logutil import setup_logging
from .queue import DurableJobQueue
from .routes import LoadShedder, ServiceContext, dispatch
from .store import PersistentDesignCache, ResultsStore
from .supervisor import Supervisor

__all__ = ["ServiceConfig", "SimulationService", "main"]

logger = logging.getLogger("repro.service.server")

#: Largest request body the server will read (a submission is tiny; this
#: bounds what a misbehaving client can make a handler thread buffer).
MAX_BODY_BYTES = 1 << 20

#: Whether a service runs its supervisor.  Without one nothing drains the
#: queue: submitted jobs stay queued (what the service's tests set it to
#: ``False`` for).
_SUPERVISE = True


def _bind_config(data_dir: str, config: PaperConfig) -> None:
    """Record ``config`` in a new data directory; refuse another config later.

    Job ids, result documents and design-cache keys do not include the
    :class:`PaperConfig`, so a data directory serves the one config it was
    first started under.  A directory that already holds state but no
    valid record (written before records existed, or its record damaged
    and quarantined) is refused on every start: its config is unknown.
    """
    path = os.path.join(data_dir, "config.json")
    fields = json.loads(json.dumps(asdict(config)))
    if not os.path.exists(path):
        state = ("queue", "results", "jobs", "design-cache.jsonl")
        held = [name for name in state if os.path.exists(os.path.join(data_dir, name))]
        if held:
            raise ConfigurationError(
                f"data directory {data_dir} holds {', '.join(held)} but no config record, "
                "so the config they were computed under is unknown; use a fresh data directory"
            )
        durable.write_atomic(path, durable.to_line({"config": fields, "digest": durable.digest(fields)}))
        return

    def verify(record: dict):
        recorded = record.get("config")
        return recorded if isinstance(recorded, dict) and record.get("digest") == durable.digest(recorded) else None

    recorded = durable.read_document(path, verify)
    if recorded is None:
        raise ConfigurationError(f"the config record {path} is damaged; it was quarantined")
    changed = sorted(name for name in fields.keys() | recorded.keys() if fields.get(name) != recorded.get(name))
    if changed:
        raise ConfigurationError(
            f"data directory {data_dir} holds results computed under another config "
            f"(differing fields: {', '.join(changed)}); use a fresh data directory"
        )


class ServiceConfig:
    """Tunables of one service instance (a plain bag, CLI-mappable 1:1)."""

    def __init__(
        self,
        *,
        max_queue_depth: int = 64,
        job_timeout_s: float = 600.0,
        max_attempts: int = 3,
    ):
        self.max_queue_depth = int(max_queue_depth)
        self.job_timeout_s = float(job_timeout_s)
        self.max_attempts = int(max_attempts)


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over :func:`repro.service.routes.dispatch`."""

    protocol_version = "HTTP/1.1"
    #: Buffered writes: headers and body of a response leave in one
    #: ``sendall`` when :meth:`_respond` flushes, so the client wakes once.
    #: http.server's own error replies (400, 501) are flushed when the
    #: request loop or ``finish`` flushes; the interim ``100 Continue`` is
    #: flushed at once by :meth:`handle_expect_100`.
    wbufsize = -1
    #: TCP_NODELAY: a response larger than the write buffer still goes out
    #: in several writes, and Nagle holding the last behind a delayed ACK
    #: caps keep-alive clients at ~25 req/s.
    disable_nagle_algorithm = True
    #: Injected per server instance by :class:`SimulationService`.
    context: ServiceContext = None  # type: ignore[assignment]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.address_string(), format % args)

    def _respond(self, status: int, payload, headers: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self._send(body)

    def handle_expect_100(self) -> bool:
        # The client holds the body back until it sees the 100, and
        # ``_read_body`` blocks on that body: send the 100 now.
        super().handle_expect_100()
        self._send(b"")
        return True

    def _send(self, body: bytes) -> None:
        """Write ``body`` after the buffered headers and flush them together."""
        try:
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client went away.  The buffered writer keeps the unsent
            # bytes and would raise again on every later flush (http.server's
            # request loop and ``finish`` both flush), so close it here and
            # leave those flushes a sink.
            self.close_connection = True
            with contextlib.suppress(OSError):
                self.wfile.close()
            self.wfile = io.BytesIO()

    def _read_body(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            return ValueError(f"Content-Length {header!r} is not a non-negative integer")
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            return ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            return error

    def _handle(self, method: str) -> None:
        context = self.context
        shedder = context.shedder
        shedder.enter()
        try:
            parts = urlsplit(self.path)
            body = self._read_body() if method == "POST" else None
            if isinstance(body, Exception):
                # The body may still be on the socket: close rather than
                # parse it as the next request.
                self._respond(400, {"error": f"bad request body: {body}"}, {"Connection": "close"})
                return
            query = dict(parse_qsl(parts.query))
            try:
                status, payload, headers = dispatch(
                    context, method, parts.path, query, body
                )
            except Exception as error:  # noqa: BLE001 - must answer the socket
                logger.exception("unhandled error on %s %s", method, parts.path)
                status, payload, headers = (
                    500,
                    {"error": f"internal error: {type(error).__name__}"},
                    {},
                )
            self._respond(status, payload, headers)
        finally:
            shedder.exit()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")


class SimulationService:
    """The composed daemon: queue + store + supervisor + HTTP API.

    It serves the paper's configuration (:data:`~repro.config.DEFAULT_CONFIG`).
    """

    def __init__(
        self,
        *,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        service_config: ServiceConfig | None = None,
    ):
        config = DEFAULT_CONFIG
        self.data_dir = data_dir
        self.service_config = service_config or ServiceConfig()
        os.makedirs(data_dir, exist_ok=True)
        _bind_config(data_dir, config)
        self.registry = obs_metrics.MetricsRegistry()
        self.store = ResultsStore(os.path.join(data_dir, "results"))
        self.queue = DurableJobQueue(
            os.path.join(data_dir, "queue"),
            max_depth=self.service_config.max_queue_depth,
        )
        self.design_cache = PersistentDesignCache(
            os.path.join(data_dir, "design-cache.jsonl")
        )
        self.designer = OpticalLinkDesigner(
            config=config, persistent_cache=self.design_cache
        )
        self.supervisor = (
            Supervisor(
                self.queue,
                self.store,
                work_dir=os.path.join(data_dir, "jobs"),
                config=config,
                job_timeout_s=self.service_config.job_timeout_s,
                max_attempts=self.service_config.max_attempts,
                registry=self.registry,
            )
            if _SUPERVISE
            else None
        )
        self.shedder = LoadShedder(self.queue, registry=self.registry)
        self.context = ServiceContext(
            queue=self.queue,
            store=self.store,
            supervisor=self.supervisor,
            designer=self.designer,
            config=config,
            registry=self.registry,
            shedder=self.shedder,
        )
        handler = type("BoundHandler", (_Handler,), {"context": self.context})
        try:
            self._server = ThreadingHTTPServer((host, port), handler)
        except OSError as error:
            raise ConfigurationError(f"cannot bind {host}:{port}: {error}") from error
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._stopped = False

    # ------------------------------------------------------------------ facts
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "SimulationService":
        """Start the supervisor and the HTTP loop on background threads."""
        if self.supervisor is not None and not self.supervisor.is_alive():
            self.supervisor.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("simulation service listening on %s (data in %s)", self.url, self.data_dir)
        return self

    def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Drain and stop (idempotent): shed, stop the worker, stop HTTP."""
        if self._stopped:
            return
        self._stopped = True
        logger.info("draining simulation service on %s", self.url)
        self.shedder.draining = True
        if self.supervisor is not None and self.supervisor.is_alive():
            self.supervisor.stop(drain_timeout_s=drain_timeout_s)
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=drain_timeout_s)
        self._server.server_close()
        logger.info("simulation service stopped")

    def serve_forever(self) -> None:
        """Run in the foreground until SIGTERM/SIGINT, then drain (CLI path)."""
        stop_requested = threading.Event()

        def _signal_drain(signum, frame) -> None:
            logger.info("received signal %d; draining", signum)
            stop_requested.set()

        previous = {
            signal.SIGTERM: signal.signal(signal.SIGTERM, _signal_drain),
            signal.SIGINT: signal.signal(signal.SIGINT, _signal_drain),
        }
        try:
            self.start()
            stop_requested.wait()
        finally:
            self.stop()
            for signum, handler in previous.items():
                signal.signal(signum, handler)


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of the ``repro-serve`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve link-design queries and simulation sweep jobs "
        "over HTTP, with a durable job queue and supervised workers.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (default: 8642; 0 = ephemeral)"
    )
    parser.add_argument(
        "--data-dir",
        default=".repro-service",
        metavar="DIR",
        help="durable state: queue, results store, per-job checkpoints "
        "(default: .repro-service)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="jobs admitted before submissions get 429 (default: 64)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="wall-clock budget per job attempt (default: 600)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job before it is marked dead (default: 3)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="operational log verbosity on stderr (default: info)",
    )
    args = parser.parse_args(argv)
    if args.max_queue_depth < 1:
        parser.error("--max-queue-depth must be at least 1")
    if args.job_timeout <= 0:
        parser.error("--job-timeout must be positive")
    if args.job_retries < 1:
        parser.error("--job-retries must be at least 1")
    setup_logging(args.log_level)
    try:
        service = SimulationService(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            service_config=ServiceConfig(
                max_queue_depth=args.max_queue_depth,
                job_timeout_s=args.job_timeout,
                max_attempts=args.job_retries,
            ),
        )
    except ConfigurationError as error:
        parser.error(str(error))
    print(f"repro-serve listening on {service.url} (data in {args.data_dir})", file=sys.stderr)
    service.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
