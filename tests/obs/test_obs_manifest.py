"""Run-manifest tests: provenance content and the serial == parallel merge."""

from __future__ import annotations

import json

import pytest
import scipy

from repro.experiments.orchestrator import run_experiment
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    manifest_path,
    write_manifest,
)

#: Small but multi-shard network grid so ``--jobs 4`` actually fans out.
NETWORK_OPTIONS = {
    "patterns": ["uniform", "hotspot"],
    "loads": [0.25, 0.7],
    "policies": ["min-power"],
    "num_requests": 80,
    "payload_bits": 2048,
    "seed": 5,
    "rings": 2,
}


def _identity_sections(manifest: dict) -> str:
    """The manifest content covered by the identity guarantee, serialized."""
    return json.dumps(
        {key: manifest[key] for key in ("fingerprint", "metrics", "shards")},
        sort_keys=True,
    )


class TestDocumentShape:
    def test_build_manifest_merges_in_grid_order(self):
        shard_metrics = {
            0: {"counters": {"n": 1}, "gauges": {}, "histograms": {}},
            1: {"counters": {"n": 2}, "gauges": {}, "histograms": {}},
        }
        manifest = build_manifest(
            experiment="demo",
            fingerprint="abc",
            options={"seed": 1},
            shard_params=[{"shard": 0}, {"shard": 1}],
            shard_metrics=shard_metrics,
        )
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["metrics"]["counters"]["n"] == 3
        assert [shard["index"] for shard in manifest["shards"]] == [0, 1]
        assert manifest["environment"]["package"] == "repro"
        assert manifest["environment"]["scipy"] == scipy.__version__

    @pytest.mark.parametrize("flag", [0, 1])
    def test_bytecode_mode_is_recorded(self, monkeypatch, flag):
        import sys
        import types

        from repro.obs import manifest as obs_manifest

        monkeypatch.setattr(sys, "flags", types.SimpleNamespace(dont_write_bytecode=flag))
        assert obs_manifest.environment_info()["dont_write_bytecode"] is bool(flag)

    def test_absent_scipy_is_recorded_as_none(self, monkeypatch):
        import importlib.metadata

        from repro.obs import manifest as obs_manifest

        def missing(distribution):
            raise importlib.metadata.PackageNotFoundError(distribution)

        monkeypatch.setattr(importlib.metadata, "version", missing)
        obs_manifest._installed_version.cache_clear()
        try:
            assert obs_manifest.environment_info()["scipy"] is None
        finally:
            obs_manifest._installed_version.cache_clear()

    def test_resumed_shards_carry_null_metrics(self):
        manifest = build_manifest(
            experiment="demo",
            fingerprint="abc",
            options=None,
            shard_params=[{"shard": 0}, {"shard": 1}],
            shard_metrics={0: None, 1: {"counters": {"n": 5}, "gauges": {}, "histograms": {}}},
            resumed=[0],
        )
        assert manifest["resumed_shards"] == [0]
        assert manifest["shards"][0]["metrics"] is None
        assert manifest["metrics"]["counters"]["n"] == 5

    def test_write_and_load_roundtrip(self, tmp_path):
        path = manifest_path(str(tmp_path), "demo")
        manifest = build_manifest(
            experiment="demo",
            fingerprint="abc",
            options=None,
            shard_params=[],
            shard_metrics={},
        )
        assert write_manifest(path, manifest) == path
        assert load_manifest(path) == manifest
        assert not list(tmp_path.glob("*.tmp"))  # atomic write left no debris

    def test_load_rejects_damage(self, tmp_path):
        path = manifest_path(str(tmp_path), "demo")
        with pytest.raises(OSError):
            load_manifest(path)
        (tmp_path / "demo.manifest.json").write_text("{truncated")
        with pytest.raises(ValueError):
            load_manifest(path)


class TestParallelIdentity:
    def test_jobs4_manifest_metrics_equal_serial_byte_for_byte(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        serial = run_experiment(
            "network", options=NETWORK_OPTIONS, manifest_dir=str(serial_dir)
        )
        pooled = run_experiment(
            "network", options=NETWORK_OPTIONS, manifest_dir=str(pooled_dir), jobs=4
        )
        assert serial[0] == pooled[0]  # the reports themselves agree too
        serial_manifest = load_manifest(manifest_path(str(serial_dir), "network"))
        pooled_manifest = load_manifest(manifest_path(str(pooled_dir), "network"))
        assert _identity_sections(serial_manifest) == _identity_sections(pooled_manifest)
        assert serial_manifest["invocation"]["jobs"] == 1
        assert pooled_manifest["invocation"]["jobs"] == 4
        events = serial_manifest["metrics"]["counters"]["netsim.events.total"]
        assert events > 0
        per_shard = sum(
            shard["metrics"]["counters"]["netsim.events.total"]
            for shard in serial_manifest["shards"]
        )
        assert per_shard == events  # the merge is exact, not approximate

    def test_resumed_run_reuses_checkpoint_and_marks_shards(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        first_dir = str(tmp_path / "first")
        resumed_dir = str(tmp_path / "resumed")
        run_experiment(
            "network",
            options=NETWORK_OPTIONS,
            checkpoint_dir=checkpoint,
            manifest_dir=first_dir,
        )
        run_experiment(
            "network",
            options=NETWORK_OPTIONS,
            checkpoint_dir=checkpoint,
            resume=True,
            manifest_dir=resumed_dir,
        )
        manifest = load_manifest(manifest_path(resumed_dir, "network"))
        assert manifest["resumed_shards"] == list(range(manifest["num_shards"]))
        assert all(shard["metrics"] is None for shard in manifest["shards"])
        assert manifest["metrics"]["counters"] == {}
        assert manifest["orchestrator"]["shards_resumed"] == manifest["num_shards"]
