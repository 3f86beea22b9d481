"""Resuming from checkpoints whose shard payloads still carry a ``trace``.

Earlier versions of the ``adaptive`` and ``availability`` shards added a
per-interval ``trace`` list to every payload.  A sweep interrupted under
such a version resumes under the same grid fingerprint, so its
checkpointed payloads come back with that list; the report and CSV rows
must still equal an uninterrupted run's.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.orchestrator import (
    _load_checkpoint,
    _write_checkpoint,
    checkpoint_path,
    describe_grid,
    run_experiment,
)

#: One interval row as the earlier shards wrote it.
_TRACE_ROW = {
    "interval": 0,
    "start_s": 0.0,
    "energy_j": 1.5e-9,
    "packets_sent": 8,
    "transfers_completed": 1,
    "mean_latency_s": 2.5e-8,
    "switches": 0,
    "packets_dropped": 0,
    "fault_transitions": 0,
    "recoveries": 0,
    "mean_recovery_s": 0.0,
    "availability": 1.0,
}

_CASES = {
    "adaptive": {"drifts": ["aging"], "loads": [0.4], "num_requests": 200, "seed": 77},
    "availability": {
        "scenarios": ["mixed"],
        "loads": [0.5],
        "num_requests": 150,
        "seed": 31,
    },
}


@pytest.mark.parametrize("experiment", sorted(_CASES))
def test_resume_from_payloads_with_a_trace(tmp_path, experiment):
    options = _CASES[experiment]
    text, rows = run_experiment(experiment, options=options)

    directory = str(tmp_path)
    run_experiment(experiment, options=options, checkpoint_dir=directory)
    grid = describe_grid(experiment, options=options)
    completed = _load_checkpoint(directory, grid)
    assert len(completed) == len(grid.shard_params) > 1
    # An interrupted sweep: the first shards landed, with their traces.
    landed = sorted(completed)[: len(completed) // 2 + 1]
    old_payloads = {
        index: {**completed[index], "trace": [dict(_TRACE_ROW, interval=index)]}
        for index in landed
    }
    _write_checkpoint(directory, grid, old_payloads)

    resumed_text, resumed_rows = run_experiment(
        experiment, options=options, checkpoint_dir=directory, resume=True
    )

    assert resumed_text == text
    assert resumed_rows == rows
    # The resumed shards really were the checkpointed ones.
    with open(checkpoint_path(directory, experiment)) as handle:
        shards = [json.loads(line) for line in handle][1:]
    traced = {shard["index"] for shard in shards if "trace" in shard["payload"]}
    assert traced == set(landed)
