"""Tests of the ``adaptive`` experiment: grid, determinism, headline claim."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments import adaptive
from repro.experiments.orchestrator import available_experiments, run_experiment

#: Small but meaningful grid reused by every test in the module.
_OPTIONS = {
    "drifts": ["aging"],
    "loads": [0.4],
    "num_requests": 400,
    "seed": 77,
}


@pytest.fixture(scope="module")
def serial_report():
    return run_experiment("adaptive", options=_OPTIONS)


def test_registered_with_the_orchestrator():
    assert "adaptive" in available_experiments()


def test_grid_shards_one_per_point():
    shards = adaptive.sweep_shards(DEFAULT_CONFIG, {"drifts": ["thermal", "none"], "loads": [0.2, 0.5]})
    assert len(shards) == 2 * 2 * 3
    # Policies of one (drift, load) pair share the pair's seed streams.
    pair_indices = {
        (shard["drift"], shard["load"]): shard["pair_index"] for shard in shards
    }
    assert len(set(pair_indices.values())) == 4
    for shard in shards:
        assert shard["pair_index"] == pair_indices[(shard["drift"], shard["load"])]


def test_grid_rejects_unknown_axes():
    with pytest.raises(ConfigurationError):
        adaptive.sweep_shards(DEFAULT_CONFIG, {"drifts": ["volcanic"]})
    with pytest.raises(ConfigurationError):
        adaptive.sweep_shards(DEFAULT_CONFIG, {"policies": ["telepathic"]})


def test_parallel_report_is_byte_identical(serial_report):
    """Determinism guard: serial vs --jobs 4 must match byte for byte."""
    text, rows = serial_report
    text4, rows4 = run_experiment("adaptive", jobs=4, options=_OPTIONS)
    assert text == text4
    assert rows == rows4


def test_adaptive_saves_energy_at_same_ber_target(serial_report):
    """The acceptance criterion: strictly lower energy, target still met."""
    _, rows = serial_report
    by_policy = {row["policy"]: row for row in rows}
    static = by_policy["static-worst"]
    adaptive_row = by_policy["adaptive"]
    oracle_row = by_policy["oracle"]
    assert adaptive_row["total_energy_j"] < static["total_energy_j"]
    assert oracle_row["total_energy_j"] < static["total_energy_j"]
    assert adaptive_row["energy_saved_vs_static_pct"] > 0.0
    # Same BER target: the delivered-bit error rate stays at or below it.
    for row in rows:
        assert row["delivered_bit_error_rate"] <= 1e-9
    # The adaptive policy actually adapted (and paid for it).
    assert adaptive_row["configuration_switches"] > 0
    assert adaptive_row["reconfiguration_energy_j"] > 0.0
    assert static["configuration_switches"] == 0


def test_shard_payloads_are_scalar_only():
    """A checkpointed payload holds the report's scalars and nothing else."""
    payloads = [
        adaptive.run_sweep_shard(shard, DEFAULT_CONFIG)
        for shard in adaptive.sweep_shards(DEFAULT_CONFIG, _OPTIONS)
    ]
    for payload in payloads:
        assert "trace" not in payload
        assert all(not isinstance(value, (list, dict)) for value in payload.values())
    by_policy = {payload["policy"]: payload for payload in payloads}
    assert by_policy["adaptive"]["configuration_switches"] > 0


def test_csv_rows_are_scalar_only(serial_report):
    _, rows = serial_report
    for row in rows:
        assert "trace" not in row
        assert all(not isinstance(value, (list, dict)) for value in row.values())


def test_zero_drift_profile_equalises_all_policies():
    """With drift "none" the three policies are the same static design."""
    options = {"drifts": ["none"], "loads": [0.4], "num_requests": 200, "seed": 3}
    _, rows = run_experiment("adaptive", options=options)
    energies = {row["policy"]: row["total_energy_j"] for row in rows}
    assert energies["static-worst"] == energies["adaptive"] == energies["oracle"]
    assert all(row["configuration_switches"] == 0 for row in rows)


def test_resume_from_checkpoint(tmp_path, serial_report):
    text, rows = serial_report
    directory = str(tmp_path)
    partial, _ = run_experiment("adaptive", options=_OPTIONS, checkpoint_dir=directory)
    resumed_text, resumed_rows = run_experiment(
        "adaptive", options=_OPTIONS, checkpoint_dir=directory, resume=True
    )
    assert partial == text
    assert resumed_text == text
    assert resumed_rows == rows
