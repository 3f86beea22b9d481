"""``benchmarks/benchlib.read_bench_results`` reads enveloped artefacts only."""

from __future__ import annotations

import glob
import importlib.util
import json
import os

import pytest

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


@pytest.fixture(scope="module")
def benchlib():
    spec = importlib.util.spec_from_file_location(
        "benchlib", os.path.join(_BENCHMARKS, "benchlib.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, document) -> str:
    path = str(tmp_path / "BENCH_x.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


def test_enveloped_artefact_yields_its_results(benchlib, tmp_path):
    path = _write(tmp_path, {"schema_version": 1, "bench": "x", "results": {"rate": 2.0}})
    assert benchlib.read_bench_results(path) == {"rate": 2.0}


@pytest.mark.parametrize(
    "document",
    [{"rate": 2.0}, {"schema_version": 1, "results": [1]}, {"results": {"rate": 2.0}}, [1, 2]],
)
def test_anything_else_reads_as_none(benchlib, tmp_path, document):
    assert benchlib.read_bench_results(_write(tmp_path, document)) is None


def test_missing_or_unparseable_file_reads_as_none(benchlib, tmp_path):
    assert benchlib.read_bench_results(str(tmp_path / "absent.json")) is None
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert benchlib.read_bench_results(str(path)) is None


def test_every_stored_artefact_is_enveloped(benchlib):
    paths = sorted(glob.glob(os.path.join(_BENCHMARKS, "BENCH_*.json")))
    assert paths
    for path in paths:
        assert isinstance(benchlib.read_bench_results(path), dict), path
