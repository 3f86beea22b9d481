"""Tests for the parallel sweep orchestrator: determinism, checkpoints, CLI."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import orchestrator
from repro.experiments.gridlib import MAX_GRID_POINTS
from repro.experiments.orchestrator import (
    GridFunctions,
    available_experiments,
    checkpoint_path,
    describe_grid,
    run_experiment,
)
from repro.experiments.report import rows_to_csv

#: Small validation workload so the Monte-Carlo experiments stay test-fast.
FAST_VALIDATION = {"targets": [1e-3], "num_blocks": 2000, "seed": 7}


def _render(result: tuple[str, list[dict]]) -> str:
    """Text report + CSV rows as one string — the byte-identity criterion."""
    text, rows = result
    return text + "\n---\n" + rows_to_csv(rows)


class TestGridDescriptors:
    def test_every_runner_experiment_has_a_grid(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"available: {', '.join(available_experiments())}" in help_text

    def test_figure5_shards_chunk_the_ber_axis(self):
        grid = describe_grid("figure5", options={"target_bers": [1e-3] * 40, "shard_size": 16})
        per_code = {}
        for shard in grid.shard_params:
            per_code.setdefault(shard["code"], []).extend(shard["target_bers"])
        assert all(len(bers) == 40 for bers in per_code.values())

    def test_validation_shards_carry_their_own_seeds(self):
        grid = describe_grid("validation", options=FAST_VALIDATION)
        indices = [shard["spawn_index"] for shard in grid.shard_params]
        assert indices == list(range(len(grid.shard_params)))

    def test_fingerprint_tracks_the_options(self):
        base = describe_grid("figure5")
        dense = describe_grid("figure5", options={"target_bers": [1e-3, 1e-4]})
        assert base.fingerprint != dense.fingerprint
        assert base.fingerprint == describe_grid("figure5").fingerprint

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("not-an-experiment")
        with pytest.raises(ConfigurationError):
            run_experiment("figure5", jobs=0)

    @pytest.mark.parametrize(
        "experiment,options",
        [
            ("figure5", {"target_bers": ["x"]}),
            ("figure5", {"target_bers": "abc"}),
            ("network", {"num_requests": "x"}),
            ("network", {"rings": float("inf")}),
            ("network", {"loads": [10**400]}),
        ],
    )
    def test_ill_typed_option_value_rejected(self, experiment, options):
        with pytest.raises(ConfigurationError, match="invalid options"):
            describe_grid(experiment, options=options)
        with pytest.raises(ConfigurationError, match="invalid options"):
            run_experiment(experiment, options=options)

    @pytest.mark.parametrize(
        "experiment,options",
        [
            ("network", {"rings": MAX_GRID_POINTS}),
            ("adaptive", {"loads": [0.3] * MAX_GRID_POINTS}),
            ("availability", {"loads": [0.3] * MAX_GRID_POINTS}),
            ("validation", {"targets": [1e-9] * MAX_GRID_POINTS}),
            ("figure5", {"target_bers": [1e-9] * MAX_GRID_POINTS, "shard_size": 10**9}),
            ("figure6a", {"codes": ["h(7,4)"] * (MAX_GRID_POINTS + 1)}),
            ("figure6b", {"target_bers": [1e-9] * MAX_GRID_POINTS}),
        ],
    )
    def test_grid_over_the_cap_rejected(self, experiment, options):
        with pytest.raises(ConfigurationError, match=f"at most {MAX_GRID_POINTS}"):
            describe_grid(experiment, options=options)

    def test_registered_grid_is_cut_off_past_the_cap(self, monkeypatch):
        def endless(config, options):
            return ({"index": index} for index in itertools.count())

        monkeypatch.setitem(orchestrator._GRIDS, "endless", GridFunctions(endless, None, None))
        with pytest.raises(ConfigurationError, match=f"at most {MAX_GRID_POINTS}"):
            describe_grid("endless")


class TestShardSeedSequences:
    def test_children_match_numpy_spawn(self):
        """A shard seeded by its position draws what ``spawn`` would hand it."""
        import numpy as np

        from repro.coding.registry import paper_code_by_name
        from repro.config import DEFAULT_CONFIG
        from repro.experiments.validation import _validation_point
        from repro.link.design import OpticalLinkDesigner
        from repro.simulation.linksim import OpticalLinkSimulator

        code = paper_code_by_name("H(7,4)")
        design = OpticalLinkDesigner(config=DEFAULT_CONFIG).design_point(code, 1e-3)
        children = np.random.SeedSequence(123).spawn(3)
        for index, child in enumerate(children):
            point = _validation_point(
                code, 1e-3, config=DEFAULT_CONFIG, num_blocks=500, batch_size=128,
                seed=123, spawn_index=index,
            )
            simulator = OpticalLinkSimulator(
                code, design, config=DEFAULT_CONFIG, rng=np.random.default_rng(child)
            )
            result = simulator.run(500, batch_size=128)
            assert point.measured_raw_ber == result.measured_raw_ber
            assert point.measured_post_ber == result.measured_post_decoding_ber


def _dense_ber_grid(num_points: int) -> list[float]:
    """Log-spaced BER axis over the paper's 1e-3..1e-12 Figure 5 range."""
    span = num_points - 1
    return [10.0 ** (-3.0 - 9.0 * index / span) for index in range(num_points)]


class TestByteIdenticalParallelism:
    @pytest.mark.parametrize(
        "options, jobs",
        [(None, 2), ({"target_bers": _dense_ber_grid(256)}, 4)],
        ids=["paper-grid", "dense-256"],
    )
    def test_figure5_parallel_matches_serial(self, options, jobs):
        serial = run_experiment("figure5", options=options)
        parallel = run_experiment("figure5", options=options, jobs=jobs)
        assert _render(serial) == _render(parallel)

    def test_validation_parallel_matches_serial(self):
        serial = run_experiment("validation", options=FAST_VALIDATION)
        parallel = run_experiment("validation", options=FAST_VALIDATION, jobs=2)
        assert _render(serial) == _render(parallel)


def _read_checkpoint_lines(path: str) -> tuple[dict, list[dict]]:
    """Parse a v2 JSON-lines checkpoint into (header, shard records)."""
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    return header, records


class TestCheckpointResume:
    def test_checkpoint_written_and_resumed(self, tmp_path):
        first = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path)
        )
        path = checkpoint_path(str(tmp_path), "validation")
        header, records = _read_checkpoint_lines(path)
        assert header["kind"] == "header"
        assert len(records) == header["num_shards"]
        assert all(record["kind"] == "shard" and "checksum" in record for record in records)

        resumed = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path), resume=True
        )
        assert _render(first) == _render(resumed)

    def test_partial_checkpoint_completes_missing_shards(self, tmp_path):
        full = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path)
        )
        path = checkpoint_path(str(tmp_path), "validation")
        lines = open(path, encoding="utf-8").read().splitlines()
        kept = [lines[0]] + [
            line
            for line in lines[1:]
            if json.loads(line)["index"] % 2 == 0
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n")

        resumed = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path), resume=True
        )
        assert _render(full) == _render(resumed)

    def test_legacy_single_json_checkpoint_is_quarantined(self, tmp_path):
        run_experiment("validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path))
        path = checkpoint_path(str(tmp_path), "validation")
        header, records = _read_checkpoint_lines(path)
        # The pre-JSON-lines layout: one document holding every shard.  It
        # carries a matching fingerprint but no header record, so it is not
        # parsed: it is quarantined like any unreadable checkpoint and every
        # shard recomputes.
        legacy = {
            "experiment": "validation",
            "fingerprint": header["fingerprint"],
            "num_shards": header["num_shards"],
            "shards": {str(record["index"]): record["payload"] for record in records},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(legacy, handle)
        resumed = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path), resume=True
        )
        with open(path + ".corrupt", encoding="utf-8") as handle:
            assert json.load(handle) == legacy
        fresh = run_experiment("validation", options=FAST_VALIDATION)
        assert _render(resumed) == _render(fresh)
        rewritten, _ = _read_checkpoint_lines(path)
        assert rewritten["kind"] == "header"

    def test_stale_fingerprint_is_ignored(self, tmp_path):
        run_experiment("validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path))

        # A different grid (options changed) must not reuse those shards: the
        # resumed run must equal a fresh computation with the new options,
        # not the checkpointed payloads of the old grid.
        other = dict(FAST_VALIDATION, num_blocks=1000)
        resumed = run_experiment(
            "validation", options=other, checkpoint_dir=str(tmp_path), resume=True
        )
        fresh = run_experiment("validation", options=other)
        stale = run_experiment("validation", options=FAST_VALIDATION)
        assert _render(resumed) == _render(fresh)
        assert _render(resumed) != _render(stale)

    def test_checkpoint_of_another_config_is_stale(self, tmp_path):
        # The grid fingerprint does not cover the config, so a checkpoint
        # written under the paper's config must not be resumed under a lossy
        # one: the resumed run equals a fresh lossy run, and the old file is
        # stale (rewritten), not damaged (quarantined).
        import os

        from repro.config import DEFAULT_CONFIG

        options = {"codes": ["H(71,64)"], "target_bers": [1e-11]}
        lossy = DEFAULT_CONFIG.with_overrides(waveguide_loss_db_per_cm=1.0)
        default = run_experiment("figure5", options=options, checkpoint_dir=str(tmp_path))
        resumed = run_experiment(
            "figure5", options=options, config=lossy, checkpoint_dir=str(tmp_path), resume=True
        )
        fresh = run_experiment("figure5", options=options, config=lossy)
        assert _render(resumed) == _render(fresh)
        assert _render(resumed) != _render(default)
        path = checkpoint_path(str(tmp_path), "figure5")
        assert not os.path.exists(path + ".corrupt")
        header, _ = _read_checkpoint_lines(path)
        assert header["fingerprint"] == describe_grid("figure5", lossy, options).checkpoint_fingerprint

    def test_corrupt_checkpoint_is_quarantined_and_recomputed(self, tmp_path):
        import os

        reference = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path)
        )
        path = checkpoint_path(str(tmp_path), "validation")

        # A bit flip inside one record invalidates its checksum: that shard
        # is recomputed, the rest are salvaged, and the damaged file is
        # quarantined as *.corrupt instead of being silently rewritten.
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record["payload"], _ = {"bogus": True}, record["payload"]
        lines[1] = json.dumps(record)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        resumed = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path), resume=True
        )
        assert _render(reference) == _render(resumed)
        assert os.path.exists(path + ".corrupt")
        os.unlink(path + ".corrupt")

        # Unparseable garbage quarantines the whole file and recomputes.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        recomputed = run_experiment(
            "validation", options=FAST_VALIDATION, checkpoint_dir=str(tmp_path), resume=True
        )
        assert _render(reference) == _render(recomputed)
        assert os.path.exists(path + ".corrupt")

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("figure5", resume=True)


class TestRunnerCliFlags:
    def test_jobs_flag_produces_identical_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["figure5"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["figure5", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_resume_flag_roundtrip(self, capsys, tmp_path):
        from repro.experiments.runner import main

        checkpoint = str(tmp_path / "ckpt")
        assert main(["figure4", "--checkpoint-dir", checkpoint]) == 0
        first = capsys.readouterr().out
        assert main(["figure4", "--checkpoint-dir", checkpoint, "--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_jobs_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["figure5", "--jobs", "0"])
