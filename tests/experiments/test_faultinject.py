"""Crash tests of the sweep orchestrator: dead workers, hangs, corruption.

These tests register the :mod:`faultinject` grid (for this module only) and drive
``run_experiment`` through worker SIGKILLs, hung shards and damaged
checkpoints, asserting both recovery (the merged result is byte-identical
to an undisturbed serial run) and bounded failure (the sweep aborts with
:class:`~repro.exceptions.ShardExecutionError` naming the shard).

The kill/hang scenarios need the pooled path (a serial kill would take
pytest down with it) and the ``fork`` start method (workers must inherit
the test-registered experiment), so the module is skipped where fork is
unavailable.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import faultinject
from repro.exceptions import ShardExecutionError
from repro.experiments import orchestrator
from repro.experiments.orchestrator import checkpoint_path, run_experiment

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection requires fork workers (registry inheritance)",
)


@pytest.fixture(scope="module", autouse=True)
def _faultinject_grid():
    """Register the fault-injection grid for this module's tests only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(orchestrator._GRIDS, faultinject.EXPERIMENT, faultinject.GRID)
        yield


def _serial_expectation(tmp_path):
    """The undisturbed result every recovery scenario must reproduce."""
    clean = tmp_path / "clean"
    clean.mkdir()
    return run_experiment(
        faultinject.EXPERIMENT, options={"work_dir": str(clean), "num_shards": 4}
    )


class TestWorkerDeath:
    def test_killed_worker_is_retried_and_result_identical(self, tmp_path):
        expected = _serial_expectation(tmp_path)
        work = tmp_path / "kill"
        work.mkdir()
        options = {"work_dir": str(work), "num_shards": 4, "kill_once": [1]}
        text, rows = run_experiment(
            faultinject.EXPERIMENT, options=options, jobs=4, max_shard_retries=4
        )
        assert (text, rows) == expected
        counts = faultinject.attempt_counts(str(work))
        # The killed shard ran at least twice; every shard ran at least once.
        assert counts[1] >= 2
        assert all(counts.get(index, 0) >= 1 for index in range(4))

    def test_repeatedly_killed_shard_exhausts_retries(self, tmp_path):
        work = tmp_path / "killalways"
        work.mkdir()
        options = {"work_dir": str(work), "num_shards": 4, "kill_always": [2]}
        with pytest.raises(ShardExecutionError) as excinfo:
            run_experiment(
                faultinject.EXPERIMENT, options=options, jobs=4, max_shard_retries=1
            )
        # The error names the failing shard's parameters (satellite
        # requirement: actionable context, not a bare pool traceback).
        assert "params" in str(excinfo.value)
        assert excinfo.value.experiment == faultinject.EXPERIMENT

    def test_deterministic_shard_exception_aborts_with_params(self, tmp_path):
        work = tmp_path / "raise"
        work.mkdir()
        options = {"work_dir": str(work), "num_shards": 4, "raise_on": [3]}
        with pytest.raises(ShardExecutionError) as excinfo:
            run_experiment(faultinject.EXPERIMENT, options=options, jobs=2)
        error = excinfo.value
        assert error.index == 3
        assert error.params["index"] == 3
        assert "ValueError" in str(error)
        # Deterministic failures must not be retried: one execution only.
        assert faultinject.attempt_counts(str(work))[3] == 1


class TestHangs:
    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        expected = _serial_expectation(tmp_path)
        work = tmp_path / "hang"
        work.mkdir()
        options = {
            "work_dir": str(work),
            "num_shards": 4,
            "hang_once": [0],
            "hang_seconds": 60.0,
        }
        text, rows = run_experiment(
            faultinject.EXPERIMENT,
            options=options,
            jobs=4,
            shard_timeout_s=1.0,
            max_shard_retries=2,
        )
        assert (text, rows) == expected
        assert faultinject.attempt_counts(str(work))[0] >= 2


class TestCheckpointCorruption:
    def test_truncated_checkpoint_is_quarantined_and_salvaged(self, tmp_path):
        expected = _serial_expectation(tmp_path)
        work = tmp_path / "ckptwork"
        work.mkdir()
        ckpt = tmp_path / "ckpt"
        options = {"work_dir": str(work), "num_shards": 4}
        run_experiment(faultinject.EXPERIMENT, options=options, checkpoint_dir=str(ckpt))
        path = checkpoint_path(str(ckpt), faultinject.EXPERIMENT)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert len(lines) == 5  # header + 4 shard records
        # Truncate mid-record, as a crash mid-write (non-atomic fs) would.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:3] + [lines[3][: len(lines[3]) // 2]]))
        for marker in work.iterdir():
            marker.unlink()  # salvage run must recompute only the lost shards
        result = run_experiment(
            faultinject.EXPERIMENT,
            options=options,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        assert result == expected
        assert os.path.exists(path + ".corrupt")
        counts = faultinject.attempt_counts(str(work))
        # Shards 0 and 1 survived the truncation; 2 and 3 were recomputed.
        assert set(counts) == {2, 3}

    def test_binary_garbage_checkpoint_is_quarantined(self, tmp_path):
        expected = _serial_expectation(tmp_path)
        work = tmp_path / "garbagework"
        work.mkdir()
        ckpt = tmp_path / "garbage"
        ckpt.mkdir()
        options = {"work_dir": str(work), "num_shards": 4}
        path = checkpoint_path(str(ckpt), faultinject.EXPERIMENT)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\x00\x01 not json at all {{{")
        result = run_experiment(
            faultinject.EXPERIMENT,
            options=options,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        assert result == expected
        assert os.path.exists(path + ".corrupt")
        # The fresh checkpoint written after quarantine is complete and valid.
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 5
