"""Fault-injection grid for the orchestrator's crash tests.

Registers a tiny ``faultinject`` experiment whose shards misbehave on
demand — SIGKILL their worker, hang, or raise — controlled per shard index
through the grid options.  Every shard execution appends one line to an
``attempt-<index>`` marker file in the test's working directory, which both
counts the attempts and lets "fail only once" faults arm themselves on the
first attempt and pass on the retry.

The orchestrator's workers dispatch shards by experiment name through the
module-level registry; with the ``fork`` start method (required by the
tests that use this module) a registration made in the parent before the
pool spins up is inherited by the workers.  Test modules register
:data:`GRID` under :data:`EXPERIMENT` in a module-scoped fixture and
remove it on teardown, so the grid never reaches other modules' tests.
"""

from __future__ import annotations

import os
import signal
import time

from repro.experiments.orchestrator import GridFunctions

EXPERIMENT = "faultinject"


def _bump_attempts(work_dir: str, index: int) -> int:
    """Record one execution of shard ``index``; returns the attempt number.

    A shard is never in flight twice concurrently (the orchestrator retries
    only after the previous attempt died), so appending needs no locking.
    """
    path = os.path.join(work_dir, f"attempt-{index}")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x\n")
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def attempt_counts(work_dir: str) -> dict[int, int]:
    """How many times each shard actually executed."""
    counts: dict[int, int] = {}
    for name in os.listdir(work_dir):
        if not name.startswith("attempt-"):
            continue
        with open(os.path.join(work_dir, name), "r", encoding="utf-8") as handle:
            counts[int(name.split("-", 1)[1])] = sum(1 for _ in handle)
    return counts


def sweep_shards(config, options):
    options = options or {}
    work_dir = options["work_dir"]
    return [
        {
            "index": index,
            "work_dir": work_dir,
            "kill_once": index in options.get("kill_once", []),
            "kill_always": index in options.get("kill_always", []),
            "hang_once_s": (
                float(options.get("hang_seconds", 30.0))
                if index in options.get("hang_once", [])
                else 0.0
            ),
            "raise_on": index in options.get("raise_on", []),
            "sleep_s": float(options.get("sleep_s", 0.0)),
        }
        for index in range(int(options.get("num_shards", 4)))
    ]


def run_sweep_shard(params, config):
    index = params["index"]
    attempt = _bump_attempts(params["work_dir"], index)
    if params["raise_on"]:
        raise ValueError(f"deterministic failure of shard {index}")
    if params["kill_always"] or (params["kill_once"] and attempt == 1):
        os.kill(os.getpid(), signal.SIGKILL)
    if params["hang_once_s"] and attempt == 1:
        time.sleep(params["hang_once_s"])
    if params["sleep_s"]:
        # Uniform slowness (not a one-shot hang): stretches the sweep so
        # service tests can catch a job mid-flight or outlast a job timeout.
        time.sleep(params["sleep_s"])
    return {"index": index, "value": index * index + 1}


def merge_sweep(payloads, config, options):
    rows = [dict(payload) for payload in payloads]
    text = "values: " + ", ".join(str(row["value"]) for row in rows)
    return text, rows


#: The grid descriptor the tests register under :data:`EXPERIMENT`.
GRID = GridFunctions(sweep_shards, run_sweep_shard, merge_sweep)
