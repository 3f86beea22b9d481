"""Workload ``paper_cold``: the whole reproduction in fresh processes.

Every repetition starts a fresh interpreter that runs the
``repro-experiments`` entry point (``runner.main``) with ``--jobs 1`` and
default options, so every operating point is solved cold: import,
crosstalk, link solves and the brentq/``binom.sf`` inversions dominate.
The interpreter is ``child.py paper``, which samples the host's speed
while the reproduction runs.  The seed changes nothing here; the
reproduction has no inputs.

* ``setup_s``: a fresh interpreter importing ``repro.experiments.runner``.
* ``work_s``: median time of the run's reproduction processes, import
  included.
* ``peak_rss_mb``: peak RSS of the reproduction process.
* check: the SHA-256 of the report on stdout equals the pinned value.
"""

from __future__ import annotations

import json
import os
import time

from common import (
    CHILD_TIMEOUT_S,
    EXPERIMENTS,
    HERE,
    SETUP_REPEATS,
    Checks,
    children_peak_rss_mb,
    import_breakdown,
    median,
    normalized,
    ref_figure,
    remove_tree,
    run_python,
    scratch_dir,
    sha256_hex,
)

RUNNER_MODULE = "repro.experiments.runner"
CHILD = os.path.join(HERE, "child.py")


def _time_import() -> float:
    """Normalized time of a fresh interpreter importing the runner."""
    start = time.perf_counter()
    completed = run_python([CHILD, "import", RUNNER_MODULE], check=True, capture_output=True)
    return normalized(time.perf_counter() - start, float(completed.stdout))


def reproduce(spans_path: "str | None" = None) -> "tuple[float, float, object]":
    """Run one reproduction child (``repro-experiments --jobs 1``).

    Returns ``(wall s, the child's reference-loop s, completed process)``;
    with ``spans_path`` the layers are traced and their spans written there.
    """
    work = scratch_dir("paper-")
    ref_path = os.path.join(work, "ref.json")
    args = [CHILD, "paper", "--ref-out", ref_path]
    if spans_path is not None:
        args += ["--spans-out", spans_path]
    try:
        start = time.perf_counter()
        completed = run_python(
            [*args, "--jobs", "1", "--manifest-dir", os.path.join(work, "manifests")],
            capture_output=True,
        )
        wall = time.perf_counter() - start
        ref_s = None
        if completed.returncode == 0:
            with open(ref_path, encoding="utf-8") as handle:
                ref_s = json.load(handle)["ref_s"]
        return wall, ref_s, completed
    finally:
        remove_tree(work)


def _checked_reproduction(pinned_sha: str, checks: Checks, spans_path=None) -> "tuple | None":
    """``(wall s, reference-loop s)`` of one reproduction whose report matches the pin."""
    wall, ref_s, completed = reproduce(spans_path)
    stderr = completed.stderr[-2000:].decode("utf-8", "replace")
    if not checks.check(completed.returncode == 0, f"reproduction exited with {completed.returncode}: {stderr}"):
        return None
    digest = sha256_hex(completed.stdout)
    if not checks.check(digest == pinned_sha, f"report SHA-256 {digest} != pinned {pinned_sha}"):
        return None
    return wall, ref_s


def run(seed: int, seconds: float, trace: bool, pins: dict) -> "tuple[dict, Checks, dict]":
    """Returns ``(metrics, checks, per-layer figures)``."""
    pinned_sha = pins["paper_cold"]["stdout_sha256"]
    checks = Checks()
    if trace:
        metrics = import_breakdown([RUNNER_MODULE])
        # Untraced reproductions on both sides of the traced one, so the
        # overhead (traced minus untraced wall time) does not depend on order.
        before = _checked_reproduction(pinned_sha, checks)
        work = scratch_dir("spans-")
        spans_path = os.path.join(work, "spans.json")
        try:
            traced = _checked_reproduction(pinned_sha, checks, spans_path)
            with open(spans_path, encoding="utf-8") as handle:
                dump = json.load(handle)
        finally:
            remove_tree(work)
        after = _checked_reproduction(pinned_sha, checks)
        from spans import layer_metrics

        metrics.update(layer_metrics(dump, list(EXPERIMENTS)))
        if before is not None and after is not None:
            plain_s = (before[0] + after[0]) / 2.0
            metrics["paper.reproduce_s"] = plain_s
            metrics["host.ref_loop_ms"] = (before[1] + after[1]) / 2.0 * 1e3
            if traced is not None:
                metrics["trace.overhead_s"] = traced[0] - plain_s
        return metrics, checks, {}

    setups = [_time_import() for _ in range(SETUP_REPEATS)]
    walls = []  # (wall s, reference-loop s) per reproduction
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > CHILD_TIMEOUT_S:
            break
        measured = _checked_reproduction(pinned_sha, checks)
        if measured is None:
            break
        walls.append(measured)
    metrics = {"setup_s": median(setups)}
    figures = {}
    if walls:
        metrics["work_s"] = median([normalized(wall, ref) for wall, ref in walls])
        # The reproductions are the largest children this process reaps.
        metrics["peak_rss_mb"] = children_peak_rss_mb()
        figures["paper.reproduce_s"] = (median([wall for wall, _ref in walls]), "s", len(walls))
        figures.update(ref_figure([ref for _wall, ref in walls]))
    return metrics, checks, figures
