"""``repro.obs`` — zero-perturbation observability for the whole stack.

The subsystem has three planes, all of them strictly *outside* the
simulation semantics:

* :mod:`~repro.obs.metrics` — a process-local registry of exact integer
  counters, float gauges and fixed-bucket histograms.  Engines, the
  manager and the orchestrator publish into whichever registry is active;
  snapshots are plain JSON and merge exactly (sums for counters,
  bucket-wise for histograms), so a sharded sweep's merged telemetry is
  byte-identical to the serial run's.
* :mod:`~repro.obs.tracing` — span-based tracing with a no-op fast path.
  Spans are emitted as JSON lines with monotonic-clock timings; wall-clock
  numbers never enter a result or checkpoint field.
* :mod:`~repro.obs.manifest` — per-run provenance records (grid
  fingerprint, options, package versions, wall/CPU time, per-shard metric
  snapshots) written next to the sweep checkpoint and rendered by
  :func:`~repro.obs.report.render_run_report` (the ``repro-experiments
  obs-report`` subcommand).

The non-negotiable invariant, pinned by the parity suite: enabling or
disabling any of this never touches an RNG stream or a simulation
observable — every :class:`~repro.netsim.engine.NetworkResult` and sweep
checkpoint is byte-identical with instrumentation on or off.
"""

from __future__ import annotations

from .logutil import setup_logging, shard_logging_context
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    environment_info,
    load_manifest,
    manifest_path,
    write_manifest,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    merge_snapshots,
)
from .report import render_run_report
from .tracing import (
    Tracer,
    disable_tracing,
    enable_tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "merge_snapshots",
    "Tracer",
    "enable_tracing",
    "disable_tracing",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "environment_info",
    "load_manifest",
    "manifest_path",
    "write_manifest",
    "render_run_report",
    "setup_logging",
    "shard_logging_context",
]
