"""The experiment registry: shipped grids listed by module path, imported on lookup.

``orchestrator._GRIDS`` names each shipped experiment's module and the
attribute names of its three grid functions; the module is imported the
first time the grid is looked up.  Registration keeps its contract: a
shipped name is replaced only with ``replace=True``, and a grid registered
before a pooled run reaches the forked workers.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import orchestrator
from repro.experiments.orchestrator import (
    GridFunctions,
    available_experiments,
    register_experiment,
    run_experiment,
)
from repro.experiments.runner import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SHIPPED = [
    "adaptive",
    "availability",
    "calibration",
    "figure3",
    "figure4",
    "figure5",
    "figure6a",
    "figure6b",
    "headline",
    "network",
    "table1",
    "validation",
]


def _shards(config, options):
    return [{"index": index} for index in range(4)]


def _run_shard(params, config):
    return {"index": params["index"], "pid": os.getpid()}


def _merge(payloads, config, options):
    # The merge runs in the parent: a shard with another pid ran in a worker.
    in_workers = all(payload["pid"] != os.getpid() for payload in payloads)
    indices = " ".join(str(payload["index"]) for payload in payloads)
    return f"indices: {indices}; in workers: {in_workers}", list(payloads)


@pytest.fixture
def toy_grid():
    """A grid registered for one test and removed after it."""
    name = "registry-toy"
    register_experiment(name, GridFunctions(_shards, _run_shard, _merge))
    try:
        yield name
    finally:
        orchestrator._GRIDS.pop(name, None)


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout.strip().splitlines()[-1]


def test_shipped_experiments_are_listed():
    # A fresh interpreter: test modules register grids of their own here.
    code = (
        "from repro.experiments.orchestrator import available_experiments\n"
        "print(' '.join(available_experiments()))"
    )
    assert _fresh_python(code).split() == SHIPPED
    assert set(SHIPPED) <= set(available_experiments())


@pytest.mark.parametrize("experiment", SHIPPED)
def test_lookup_resolves_the_named_module_functions(experiment):
    functions = orchestrator._grid_functions(experiment)
    module = importlib.import_module(functions.run_shard.__module__)
    assert module.__name__.startswith("repro.experiments.")
    assert getattr(module, functions.run_shard.__name__) is functions.run_shard
    assert callable(functions.shards) and callable(functions.merge)
    assert orchestrator._grid_functions(experiment) is functions


@pytest.mark.parametrize("experiment", ["table1", "figure6b"])
def test_shipped_name_needs_replace(experiment, monkeypatch):
    toy = GridFunctions(_shards, _run_shard, _merge)
    with pytest.raises(ConfigurationError, match="already registered"):
        register_experiment(experiment, toy)
    monkeypatch.setitem(orchestrator._GRIDS, experiment, orchestrator._GRIDS[experiment])
    register_experiment(experiment, toy, replace=True)
    assert orchestrator._grid_functions(experiment) is toy


def test_registered_name_needs_replace(toy_grid):
    with pytest.raises(ConfigurationError, match="already registered"):
        register_experiment(toy_grid, GridFunctions(_shards, _run_shard, _merge))


def test_registered_grid_runs_under_jobs_2(toy_grid, tmp_path, capsys):
    assert main([toy_grid, "--jobs", "2", "--manifest-dir", str(tmp_path)]) == 0
    assert "indices: 0 1 2 3; in workers: True" in capsys.readouterr().out
    assert run_experiment(toy_grid)[0] == "indices: 0 1 2 3; in workers: False"


def test_describe_grid_imports_only_its_module():
    code = """
import json, sys
from repro.experiments.orchestrator import describe_grid
describe_grid("figure6a")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro.experiments."))))
"""
    loaded = json.loads(_fresh_python(code))
    grids = [name for name in loaded if name.rsplit(".", 1)[1] not in ("gridlib", "orchestrator")]
    # figure6 reads the paper's values for its comparisons.
    assert grids == ["repro.experiments.figure6", "repro.experiments.paperdata"]
