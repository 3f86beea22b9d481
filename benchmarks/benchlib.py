"""Shared plumbing for the ``bench_*.py`` scripts.

Every benchmark artefact (``BENCH_*.json``) carries the same envelope —
``schema_version``, the benchmark name, host facts (platform, Python,
NumPy, SciPy, CPU count) and the measurement payload under ``results`` —
written by :func:`write_bench_json`, so downstream tooling can parse any artefact
without per-script knowledge.  :func:`read_bench_results` returns the
payload of an enveloped artefact and ``None`` for anything else.

:func:`append_history` gives benchmarks a trajectory: one compact
``{"bench", "metric", "value", "git_sha"}`` JSON line per headline metric,
appended to ``<history dir>/<bench>.jsonl`` — the ``BENCH_*.json`` files
are overwritten per run, the history is not.  :func:`parse_args` is the
one-flag CLI (``--history DIR``) every script's ``main`` shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict

SCHEMA_VERSION = 1

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_info() -> dict:
    """Host facts that contextualize a timing (never used in any gate)."""
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str | None:
    """Current commit hash, or ``None`` outside a usable git checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return output or None


def write_bench_json(path: str, bench: str, results: Dict[str, Any]) -> dict:
    """Write one benchmark artefact in the shared envelope; returns the doc."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "host": host_info(),
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def read_bench_results(path: str) -> Dict[str, Any] | None:
    """Measurement payload of a stored artefact, or ``None`` if not enveloped."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        isinstance(stored, dict)
        and stored.get("schema_version") is not None
        and isinstance(stored.get("results"), dict)
    ):
        return stored["results"]
    return None


def append_history(history_dir: str, bench: str, metrics: Dict[str, float]) -> str:
    """Append one ``{bench, metric, value, git_sha}`` row per metric.

    Rows accumulate in ``<history_dir>/<bench>.jsonl`` across runs and
    commits, so throughput trajectories survive the per-run overwrite of
    the ``BENCH_*.json`` artefacts.  Returns the history file's path.
    """
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, f"{bench}.jsonl")
    sha = git_sha()
    with open(path, "a", encoding="utf-8") as handle:
        for metric in sorted(metrics):
            handle.write(
                json.dumps(
                    {
                        "bench": bench,
                        "metric": metric,
                        "value": metrics[metric],
                        "git_sha": sha,
                    }
                )
                + "\n"
            )
    return path


def parse_args(argv: "list[str] | None" = None, *, description: str | None = None):
    """The shared benchmark CLI: ``--history DIR`` and nothing else."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="append this run's headline metrics as JSON lines to "
        "DIR/<bench>.jsonl (trend tracking across commits)",
    )
    return parser.parse_args(argv)
