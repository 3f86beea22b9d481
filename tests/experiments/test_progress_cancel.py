"""Unit tests for ``SweepProgress.eta_s`` and the cooperative cancel hook.

The ETA edge cases are the PR's satellite fix: a sweep with zero freshly
completed shards (everything resumed) must report "no estimate" instead of
dividing by zero, a finished sweep reports ``0.0``, and retried shards are
charged to the denominator so heavy retrying does not inflate the
per-shard estimate.

The cancel hook is what the CLI's signal handlers and the service
supervisor's drain path use: it is polled between shards, the final
checkpoint lands *before* :class:`~repro.exceptions.SweepCancelled` is
raised, and a ``--resume`` rerun completes from exactly those shards.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SweepCancelled
from repro.experiments import orchestrator
from repro.experiments.orchestrator import (
    GridFunctions,
    SweepProgress,
    checkpoint_path,
    run_experiment,
)

EXPERIMENT = "cancelgrid"


def _progress(**overrides) -> SweepProgress:
    defaults = dict(
        experiment="x",
        shards_total=10,
        shards_done=4,
        shards_resumed=0,
        events_processed=0,
        elapsed_s=8.0,
        retries=0,
    )
    defaults.update(overrides)
    return SweepProgress(**defaults)


class TestEtaEstimate:
    def test_plain_estimate(self):
        # 4 fresh shards in 8s -> 2 s/shard -> 6 remaining = 12s
        assert _progress().eta_s == pytest.approx(12.0)

    def test_no_estimate_before_any_shard(self):
        assert _progress(shards_done=0, elapsed_s=3.0).eta_s is None

    def test_no_estimate_when_everything_was_resumed(self):
        # the pre-fix code divided by zero fresh shards here
        assert _progress(shards_done=4, shards_resumed=4).eta_s is None

    def test_zero_elapsed_gives_no_estimate(self):
        assert _progress(elapsed_s=0.0).eta_s is None

    def test_finished_sweep_is_zero_even_if_fully_resumed(self):
        done = _progress(shards_done=10, shards_resumed=10, elapsed_s=0.0)
        assert done.eta_s == 0.0

    def test_retries_count_as_attempts(self):
        # 4 fresh + 4 failed attempts consumed the same 8s -> 1 s/attempt,
        # not 2 s/shard: retrying must not inflate the projection
        skewed = _progress(retries=4)
        assert skewed.eta_s == pytest.approx(6.0)
        assert skewed.eta_s < _progress().eta_s

    def test_resumed_shards_do_not_dilute_the_rate(self):
        # 2 of the 4 done shards were replayed from a checkpoint in ~0s;
        # the 8s of work bought only 2 fresh shards -> 4 s/shard
        resumed = _progress(shards_resumed=2)
        assert resumed.eta_s == pytest.approx(24.0)

    def test_negative_retries_are_clamped(self):
        assert _progress(retries=-3).eta_s == _progress().eta_s


def _shards(config, options):
    options = options or {}
    return [{"index": index} for index in range(int(options.get("num_shards", 4)))]


def _run_shard(params, config):
    return {"index": params["index"], "value": params["index"] * 3}


def _merge(payloads, config, options):
    rows = [dict(payload) for payload in payloads]
    return "total: " + str(sum(row["value"] for row in rows)), rows


@pytest.fixture(autouse=True)
def _cancelgrid(monkeypatch):
    """Register ``cancelgrid`` for one test; removed again on teardown."""
    monkeypatch.setitem(orchestrator._GRIDS, EXPERIMENT, GridFunctions(_shards, _run_shard, _merge))


class TestCancelHook:
    def test_immediate_cancel_raises_before_any_shard(self, tmp_path):
        with pytest.raises(SweepCancelled) as excinfo:
            run_experiment(EXPERIMENT, cancel=lambda: True)
        assert excinfo.value.experiment == EXPERIMENT
        assert excinfo.value.shards_done == 0
        assert excinfo.value.shards_total == 4

    def test_cancel_mid_sweep_finalizes_the_checkpoint(self, tmp_path):
        seen: list[int] = []

        def progress(update: SweepProgress) -> None:
            seen.append(update.shards_done)

        with pytest.raises(SweepCancelled) as excinfo:
            run_experiment(
                EXPERIMENT,
                checkpoint_dir=str(tmp_path),
                progress=progress,
                cancel=lambda: bool(seen) and seen[-1] >= 1,  # after 1 shard
            )
        assert excinfo.value.shards_done == 1
        # the shard that landed is on disk, resumable
        assert checkpoint_path(str(tmp_path), EXPERIMENT)

        text, rows = run_experiment(
            EXPERIMENT, checkpoint_dir=str(tmp_path), resume=True
        )
        assert text == run_experiment(EXPERIMENT)[0]
        assert [row["value"] for row in rows] == [0, 3, 6, 9]

    def test_pooled_sweep_cancels_between_waits(self, tmp_path):
        with pytest.raises(SweepCancelled):
            run_experiment(
                EXPERIMENT,
                jobs=2,
                checkpoint_dir=str(tmp_path),
                cancel=lambda: True,
            )

    def test_no_cancel_hook_changes_nothing(self):
        assert run_experiment(EXPERIMENT) == run_experiment(EXPERIMENT, cancel=None)
