"""Run manifests: per-invocation provenance records for sweeps.

A manifest is written next to a sweep's checkpoint (one JSON document per
experiment) and records everything needed to audit or reproduce the run:
the grid fingerprint and options (which carry the seeds and engine
selection), the package/NumPy/Python versions, wall and CPU time, the
orchestrator's shard-lifecycle accounting, and the per-shard metric
snapshots together with their exact merge.

The document is split into *identity* sections and *timing* sections:

* ``metrics`` and ``shards`` are pure functions of the grid — a
  ``--jobs 4`` sweep produces byte-identical content to the serial run
  (pinned by ``tests/obs/test_obs_manifest.py``);
* ``timing``, ``environment`` and ``invocation`` carry wall-clock and
  host facts and are explicitly excluded from any identity claim.

Monotonic/wall timings live only here and in trace files — never in a
result or checkpoint field.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
from typing import Any, Dict, Sequence

from .. import durable
from .metrics import merge_snapshots

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_job_manifest",
    "build_manifest",
    "environment_info",
    "job_manifest_path",
    "load_manifest",
    "manifest_path",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1


def manifest_path(directory: str, experiment: str) -> str:
    """Location of one experiment's run manifest inside a directory."""
    return os.path.join(directory, f"{experiment}.manifest.json")


def job_manifest_path(directory: str, job_id: str) -> str:
    """Location of one service job's lifecycle manifest inside a directory."""
    return os.path.join(directory, f"job-{job_id}.manifest.json")


def build_job_manifest(
    *,
    job: dict,
    attempts: Sequence[dict],
    result_path: str | None,
    timing: dict | None = None,
) -> dict:
    """Assemble one service job's lifecycle manifest.

    Complements the per-run sweep manifest the orchestrator writes inside
    the job's working directory: the job manifest records what the
    *supervisor* saw — every attempt with its outcome (``done``, ``killed``,
    ``timeout``, ``error``, ``cancelled``), the retry/backoff history and
    where the verified result landed — so a job that needed three attempts
    leaves an auditable trail even though its final result is
    byte-identical to a first-try run.
    """
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "job-manifest",
        "job": dict(job),
        "attempts": [dict(attempt) for attempt in attempts],
        "result_path": result_path,
        "environment": environment_info(),
        "timing": timing or {},
    }


def environment_info() -> dict:
    """Versions and host facts that identify the software environment.

    SciPy is only the tests' oracle: its installed version is read from
    the distribution metadata (``None`` when it is absent), never by
    importing it.  ``dont_write_bytecode`` records whether the process ran
    without writing bytecode (``PYTHONDONTWRITEBYTECODE`` or ``-B``), which
    decides whether a cold start compiles every module it imports.
    """
    import numpy

    import repro

    return {
        "package": "repro",
        "package_version": repro.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": _installed_version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


@functools.lru_cache(maxsize=None)
def _installed_version(distribution: str) -> "str | None":
    """Version of an installed distribution from its metadata (a path scan)."""
    import importlib.metadata

    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def build_manifest(
    *,
    experiment: str,
    fingerprint: str,
    options: dict | None,
    shard_params: Sequence[Any],
    shard_metrics: Dict[int, dict | None],
    resumed: Sequence[int] = (),
    invocation: dict | None = None,
    orchestrator: dict | None = None,
    timing: dict | None = None,
) -> dict:
    """Assemble one run's manifest document.

    ``shard_metrics`` maps shard index to its metric snapshot (``None`` for
    shards replayed from a checkpoint, whose metrics were never observed).
    The merged ``metrics`` section folds the available snapshots in grid
    order — the order that makes parallel merges exactly equal serial ones.
    """
    indices = range(len(shard_params))
    merged = merge_snapshots(
        snapshot
        for snapshot in (shard_metrics.get(index) for index in indices)
        if snapshot is not None
    )
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "experiment": experiment,
        "fingerprint": fingerprint,
        "options": options,
        "num_shards": len(shard_params),
        "resumed_shards": sorted(int(index) for index in resumed),
        "metrics": merged,
        "shards": [
            {
                "index": index,
                "params": shard_params[index],
                "metrics": shard_metrics.get(index),
            }
            for index in indices
        ],
        "invocation": invocation or {},
        "orchestrator": orchestrator or {},
        "environment": environment_info(),
        "timing": timing or {},
    }


def write_manifest(path: str, manifest: dict) -> str:
    """Atomically persist a manifest (:func:`repro.durable.write_atomic`)."""
    durable.write_atomic(path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


def load_manifest(path: str) -> dict:
    """Read a manifest back; raises ``OSError``/``ValueError`` on damage."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
