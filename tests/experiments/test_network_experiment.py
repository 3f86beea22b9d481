"""Tests for the ``network`` experiment: grid shape, determinism, CLI wiring."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments.network import (
    DEFAULT_LOADS,
    DEFAULT_PATTERNS,
    DEFAULT_POLICIES,
    request_rate_for_load,
    sweep_shards,
)
from repro.experiments.orchestrator import available_experiments, describe_grid, run_experiment
from repro.experiments.report import rows_to_csv

#: Small grid so the Monte-Carlo sweeps stay test-fast (12 shards).
FAST_NETWORK = {
    "patterns": ["uniform", "hotspot", "bursty"],
    "loads": [0.15, 0.75],
    "policies": ["min-power", "min-energy"],
    "num_requests": 150,
    "payload_bits": 2048,
    "seed": 5,
}


def _render(result: tuple[str, list[dict]]) -> str:
    text, rows = result
    return text + "\n---\n" + rows_to_csv(rows)


class TestGridShape:
    def test_network_is_registered(self):
        assert "network" in available_experiments()

    def test_default_grid_covers_every_pattern_load_policy(self):
        shards = sweep_shards(DEFAULT_CONFIG, None)
        coords = {(s["pattern"], s["policy"], s["load"]) for s in shards}
        assert len(shards) == len(DEFAULT_PATTERNS) * len(DEFAULT_LOADS) * len(DEFAULT_POLICIES)
        for pattern in DEFAULT_PATTERNS:
            for policy in DEFAULT_POLICIES:
                for load in DEFAULT_LOADS:
                    assert (pattern, policy, load) in coords

    def test_spawn_indices_are_sequential(self):
        grid = describe_grid("network", options=FAST_NETWORK)
        indices = [shard["spawn_index"] for shard in grid.shard_params]
        assert indices == list(range(len(grid.shard_params)))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_shards(DEFAULT_CONFIG, {"policies": ["fastest-possible"]})

    def test_request_rate_scales_with_load(self):
        assert request_rate_for_load(0.5) == pytest.approx(2 * request_rate_for_load(0.25))
        for load in (0.0, -0.5, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="relative load"):
                request_rate_for_load(load)

    def test_zero_load_rejected(self):
        with pytest.raises(ConfigurationError, match="relative load"):
            sweep_shards(DEFAULT_CONFIG, {"loads": [0.0]})


class TestDeterminismGuard:
    def test_parallel_network_run_is_byte_identical_to_serial(self):
        # The same contract PR 2 established for the other experiments:
        # jobs=4 must reproduce the serial report byte for byte.
        serial = run_experiment("network", options=FAST_NETWORK)
        parallel = run_experiment("network", options=FAST_NETWORK, jobs=4)
        assert _render(serial) == _render(parallel)


def _curve(rows: list[dict], pattern: str, policy: str) -> list[dict]:
    """The load series of one (pattern, policy) curve."""
    return [row for row in rows if row["pattern"] == pattern and row["policy"] == policy]


class TestSweepContent:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("network", options=FAST_NETWORK)

    def test_every_point_delivers_traffic(self, result):
        _, rows = result
        for row in rows:
            assert row["delivered_gbps"] > 0.0
            assert row["transfers_completed"] > 0

    def test_latency_grows_with_load(self, result):
        _, rows = result
        for pattern in FAST_NETWORK["patterns"]:
            for policy in FAST_NETWORK["policies"]:
                light, heavy = _curve(rows, pattern, policy)
                assert light["load"] < heavy["load"]
                assert heavy["latency_p50_s"] > light["latency_p50_s"]

    def test_hotspot_saturates_before_uniform(self, result):
        _, rows = result
        uniform = _curve(rows, "uniform", "min-power")[-1]
        hotspot = _curve(rows, "hotspot", "min-power")[-1]
        assert hotspot["latency_p99_s"] > uniform["latency_p99_s"]
        assert hotspot["delivered_gbps"] < uniform["delivered_gbps"]

    def test_report_renders_every_grid_point(self, result):
        text, _ = result
        for pattern in FAST_NETWORK["patterns"]:
            assert pattern in text
        assert text.count("min-power") == 6
        assert text.count("min-energy") == 6


class TestCheckpointing:
    def test_network_checkpoint_roundtrip(self, tmp_path):
        first = run_experiment(
            "network", options=FAST_NETWORK, checkpoint_dir=str(tmp_path)
        )
        resumed = run_experiment(
            "network", options=FAST_NETWORK, checkpoint_dir=str(tmp_path), resume=True
        )
        assert _render(first) == _render(resumed)


#: Tiny two-ring grid for the scale-out tests (8 shards).
RING_NETWORK = {
    "patterns": ["uniform"],
    "loads": [0.2, 0.6],
    "policies": ["min-power", "min-energy"],
    "num_requests": 120,
    "payload_bits": 2048,
    "seed": 5,
    "rings": 2,
}


class TestMultiRingSharding:
    def test_rings_multiply_the_shard_count(self):
        single = sweep_shards(DEFAULT_CONFIG, {**RING_NETWORK, "rings": 1})
        double = sweep_shards(DEFAULT_CONFIG, RING_NETWORK)
        assert len(double) == 2 * len(single)
        assert [s["spawn_index"] for s in double] == list(range(len(double)))
        assert {s["ring"] for s in double} == {0, 1}

    def test_rings_are_independently_seeded(self):
        shards = sweep_shards(DEFAULT_CONFIG, RING_NETWORK)
        point = [s for s in shards if s["load"] == 0.2 and s["policy"] == "min-power"]
        assert len(point) == 2
        from repro.experiments.network import run_sweep_shard

        rows = [run_sweep_shard(p, DEFAULT_CONFIG) for p in point]
        # Same grid point, different ring -> different streams, different rows.
        assert rows[0]["latency_p50_s"] != rows[1]["latency_p50_s"]

    def test_merged_rows_aggregate_ring_counters_exactly(self):
        from repro.experiments.network import run_sweep_shard

        shards = sweep_shards(DEFAULT_CONFIG, RING_NETWORK)
        payloads = [run_sweep_shard(p, DEFAULT_CONFIG) for p in shards]
        _, rows = run_experiment("network", options=RING_NETWORK)
        assert len(rows) == len(shards) // 2
        for row in rows:
            ring_rows = [
                p
                for p in payloads
                if (p["pattern"], p["policy"], p["load"])
                == (row["pattern"], row["policy"], row["load"])
            ]
            assert len(ring_rows) == 2
            for key in ("transfers_completed", "packets_sent", "total_energy_j"):
                assert row[key] == sum(r[key] for r in ring_rows)
            assert "ring" not in row

    def test_multi_ring_parallel_is_byte_identical_to_serial(self):
        serial = run_experiment("network", options=RING_NETWORK)
        parallel = run_experiment("network", options=RING_NETWORK, jobs=4)
        assert _render(serial) == _render(parallel)

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_shards(DEFAULT_CONFIG, {"rings": 0})

    @pytest.mark.parametrize(
        "key, value",
        [("engine", "warp-drive"), ("engine", "reference"), ("num_request", 150)],
    )
    def test_unknown_option_keys_rejected(self, key, value):
        """A typo or a stale key must not run the defaults under a new job id."""
        options = {**FAST_NETWORK, key: value}
        with pytest.raises(ConfigurationError, match=key):
            sweep_shards(DEFAULT_CONFIG, options)
        with pytest.raises(ConfigurationError, match=key):
            describe_grid("network", options=options)
        with pytest.raises(ConfigurationError, match=key):
            run_experiment("network", options=options)
