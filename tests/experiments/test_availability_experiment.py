"""Tests of the ``availability`` experiment: grid, determinism, degradation."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments import availability
from repro.experiments.orchestrator import available_experiments, run_experiment

#: Small but meaningful grid reused by every test in the module.
_OPTIONS = {
    "scenarios": ["none", "mixed"],
    "loads": [0.5],
    "num_requests": 150,
    "seed": 31,
}


@pytest.fixture(scope="module")
def serial_report():
    return run_experiment("availability", options=_OPTIONS)


def test_registered_with_the_orchestrator():
    assert "availability" in available_experiments()


def test_grid_shards_one_per_point():
    shards = availability.sweep_shards(
        DEFAULT_CONFIG, {"scenarios": ["lane-fail", "blackout"], "loads": [0.2, 0.5]}
    )
    assert len(shards) == 2 * 2 * 3
    # Policies of one (scenario, load) pair share the pair's seed streams,
    # so they face literally the same traffic and fault timelines.
    pair_indices = {
        (shard["scenario"], shard["load"]): shard["pair_index"] for shard in shards
    }
    assert len(set(pair_indices.values())) == 4
    for shard in shards:
        assert shard["pair_index"] == pair_indices[(shard["scenario"], shard["load"])]


def test_grid_rejects_unknown_axes():
    with pytest.raises(ConfigurationError):
        availability.sweep_shards(DEFAULT_CONFIG, {"scenarios": ["earthquake"]})
    with pytest.raises(ConfigurationError):
        availability.sweep_shards(DEFAULT_CONFIG, {"policies": ["hope"]})


def test_parallel_report_is_byte_identical(serial_report):
    """Determinism guard: serial vs --jobs 4 must match byte for byte."""
    text, rows = serial_report
    text4, rows4 = run_experiment("availability", jobs=4, options=_OPTIONS)
    assert text == text4
    assert rows == rows4


def test_ladder_degrades_gracefully_under_faults(serial_report):
    """The acceptance criterion: fewer drops and no wasted energy vs static."""
    _, rows = serial_report
    faulted = {row["policy"]: row for row in rows if row["scenario"] == "mixed"}
    static = faulted["static"]
    ladder = faulted["degradation-ladder"]
    # Faults actually happened and were accounted.
    assert static["fault_transitions"] > 0
    assert static["availability"] < 1.0
    # The ladder drops (strictly) fewer packets than blind retransmission
    # and does not retransmit into dead channels.
    assert ladder["packet_drop_rate"] < static["packet_drop_rate"]
    assert ladder["packets_retried"] < static["packets_retried"]
    assert ladder["drop_rate_delta_vs_static_pp"] > 0.0
    # Blind retransmission into dead lanes costs energy the ladder saves.
    assert ladder["total_energy_j"] < static["total_energy_j"]


def test_fault_free_baseline_is_clean(serial_report):
    _, rows = serial_report
    for row in rows:
        if row["scenario"] == "none":
            assert row["availability"] == 1.0
            assert row["packet_drop_rate"] == 0.0
            assert row["fault_transitions"] == 0


def test_payload_carries_availability_metrics():
    shards = availability.sweep_shards(DEFAULT_CONFIG, _OPTIONS)
    ladder_shards = [
        shard
        for shard in shards
        if shard["scenario"] == "mixed" and shard["policy"] == "degradation-ladder"
    ]
    payload = availability.run_sweep_shard(ladder_shards[0], DEFAULT_CONFIG)
    for key in (
        "availability",
        "packet_drop_rate",
        "crc_escape_rate",
        "packets_retried",
        "mean_time_to_recover_s",
        "channel_downtime_s",
    ):
        assert key in payload


def test_shard_payloads_are_scalar_only():
    """A checkpointed payload holds the report's scalars and nothing else."""
    for shard in availability.sweep_shards(DEFAULT_CONFIG, _OPTIONS):
        payload = availability.run_sweep_shard(shard, DEFAULT_CONFIG)
        assert "trace" not in payload
        assert all(not isinstance(value, (list, dict)) for value in payload.values())
