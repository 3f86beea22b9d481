"""Pinned fingerprints of the three network grids.

Checkpoint resume and service job ids both key on
``describe_grid(...).fingerprint``: a refactor that renames, retypes or
reorders one shard parameter would silently orphan every checkpoint and
give a resubmitted job a new id.  These pins fail on any such change.
"""

from __future__ import annotations

import pytest

from repro.experiments.orchestrator import describe_grid

CASES = [
    ("network", None, 24, "fa642d92931ba6ddece7c27ebabc0da254a29a40b30d885d25618fcb7e168d12"),
    ("adaptive", None, 12, "7f62d09c2993d30c716b6802edbaf1151a6bf04a8be15f065af9f2681add7b3b"),
    ("availability", None, 12, "c0a456d645d79c4dc49c519290e712ff5d906d8f3e7e96ba5a4b6b8848274bdd"),
    (
        "network",
        {"rings": 2, "loads": [0.2]},
        12,
        "6cf6d8738390eb107a1b5f0589fa1eff699d49f80832c32f8e0b5ae222ccb920",
    ),
    (
        "adaptive",
        {"drifts": ["thermal"], "seed": 3},
        6,
        "ad46a0d63c7c9878620ee3531fb13c97b74c034059c261e9e158647ce42abe91",
    ),
    (
        "availability",
        {"scenarios": ["mixed"], "loads": [0.3, 0.6]},
        6,
        "45f3b0065f03f7a8d019565a50f570bd8fb4bbf4ba3c7e6c0508e0de5245f209",
    ),
]


@pytest.mark.parametrize(
    "experiment, options, num_shards, fingerprint",
    CASES,
    ids=[f"{case[0]}-{'defaults' if case[1] is None else 'options'}" for case in CASES],
)
def test_grid_fingerprint_is_pinned(experiment, options, num_shards, fingerprint):
    grid = describe_grid(experiment, options=options)
    assert len(grid.shard_params) == num_shards
    assert grid.fingerprint == fingerprint
