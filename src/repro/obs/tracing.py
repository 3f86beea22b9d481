"""Span-based tracing with a no-op fast path and JSONL emission.

A *span* is one timed operation — a link-design solve, an epoch flush, a
shard execution, a checkpoint write.  Spans are emitted as single JSON
lines so concurrent fork workers can append to the same file (each line is
one ``write`` on an ``O_APPEND`` descriptor; the per-process ``pid`` field
disambiguates interleavings).

Timing discipline: every duration comes from ``time.perf_counter`` (the
monotonic clock) and is written *only* to the trace sink.  No wall-clock
number ever enters a simulation result, a checkpoint payload or a metric
counter — that separation is what keeps tracing zero-perturbation and the
``--jobs N`` byte-identity intact.

The disabled fast path is a module-level ``ACTIVE is None`` check; hot
callers bind it once per run so a disabled trace costs one identity test
per *run*, not per event.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, TextIO

__all__ = [
    "ACTIVE",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
]

#: The active tracer, or ``None`` when tracing is disabled (the default).
ACTIVE: "Tracer | None" = None

#: JSON-encoded span names, cached because the name set is small and fixed
#: (``netsim.epoch_flush`` alone fires once per epoch on the hot path).
_NAME_JSON: Dict[str, str] = {}


class _Span:
    """Context manager timing one operation; emits on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer.emit(self._name, duration, self._attrs, start=self._start)


class Tracer:
    """Writes span records as JSON lines to a file or stream.

    The sink is opened in append mode with line buffering, so a forked
    worker inherits a flushed descriptor and its lines interleave whole.
    """

    def __init__(self, sink: "str | TextIO"):
        if isinstance(sink, str):
            self._handle: TextIO = open(sink, "a", encoding="utf-8", buffering=1)
            self._owns_handle = True
            self.path: str | None = sink
        else:
            self._handle = sink
            self._owns_handle = False
            self.path = getattr(sink, "name", None)
        self._origin = time.perf_counter()

    def span(self, name: str, **attrs: Any) -> _Span:
        """Time a ``with`` block and emit it as one span record."""
        return _Span(self, name, attrs)

    def emit(
        self,
        name: str,
        duration_s: float,
        attrs: Dict[str, Any] | None = None,
        *,
        start: float | None = None,
    ) -> None:
        """Write one span record (already-timed callers skip the context manager)."""
        # The envelope is %-formatted rather than json.dumps-ed: it is ~5x
        # cheaper and this runs once per epoch flush on traced netsim runs.
        # start_s is a monotonic offset from the tracer's creation, not wall
        # time, and timings live only in this sink — never in results.
        name_json = _NAME_JSON.get(name)
        if name_json is None:
            name_json = _NAME_JSON[name] = json.dumps(name)
        if not attrs:
            attrs_json = ""
        elif len(attrs) == 1:
            # Hot spans (epoch flushes) carry one integer attribute; format
            # it directly rather than paying json.dumps for a one-key dict.
            ((key, value),) = attrs.items()
            if type(value) is int:
                attrs_json = ',"attrs":{"%s":%d}' % (key, value)
            else:
                attrs_json = ',"attrs":' + json.dumps(attrs, default=str)
        else:
            attrs_json = ',"attrs":' + json.dumps(attrs, default=str)
        self._handle.write(
            '{"kind":"span","name":%s,"pid":%d,"start_s":%.9f,"duration_s":%.9f%s}\n'
            % (
                name_json,
                os.getpid(),
                (start if start is not None else time.perf_counter()) - self._origin,
                duration_s,
                attrs_json,
            )
        )

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


# ------------------------------------------------------------------ activation
def enable_tracing(sink: "str | TextIO") -> Tracer:
    """Install a tracer writing to ``sink`` (path or open text stream)."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = Tracer(sink)
    return ACTIVE


def disable_tracing() -> None:
    """Deactivate tracing (spans revert to no-ops) and close the sink."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = None
