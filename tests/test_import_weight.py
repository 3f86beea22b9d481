"""Import-weight guard: a cold start loads only what the run reads.

Importing ``scipy.special`` alone cost about 280 ms of every cold start,
more than a reproduction spends solving; the three functions the link's
closed forms need are ported in :mod:`repro.special`.  SciPy stays a test
oracle only.  ``repro`` and ``repro.experiments`` resolve their re-exports
on first access, and the orchestrator imports a grid's module the first
time the grid is looked up.  These checks run in fresh interpreters:

* after importing the CLI runner and the service, and after a small
  reproduction and a service session, no ``scipy`` module is loaded;
* with ``scipy`` blocked by a meta-path finder (as on a host without it),
  a reproduction, a ``/design`` miss and a sweep job still succeed;
* ``import repro`` loads no submodule; importing the runner and
  ``repro-experiments --help`` load no NumPy and no grid module, and
  ``--help`` works with NumPy blocked;
* each closed-form experiment, run alone, loads no network simulator,
  traffic or service module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

SESSION = """
import json, sys, tempfile, time, urllib.request

from repro.experiments import runner
from repro.service.server import SimulationService

with tempfile.TemporaryDirectory() as root:
    assert runner.main(["table1", "figure5", "validation", "network", "--manifest-dir", root]) == 0
    service = SimulationService(data_dir=root + "/service", port=0).start()
    try:
        def call(path, body=None):
            data = None if body is None else json.dumps(body).encode()
            with urllib.request.urlopen(urllib.request.Request(service.url + path, data=data), timeout=60) as reply:
                return json.loads(reply.read())

        design = "/design?code=bch(63,t=2)&target_ber=1e-12"
        assert call(design)["cached"] is False
        assert call(design)["cached"] is True
        job_id = call("/jobs", {"experiment": "figure6b"})["job_id"]
        deadline = time.monotonic() + 60
        while call("/jobs/" + job_id)["state"] in ("queued", "running"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        job = call("/jobs/" + job_id)
        assert job["state"] == "done", job
        assert call("/jobs/" + job_id + "/result")["result"]["rows"]
    finally:
        service.stop(drain_timeout_s=10.0)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

BLOCK_SCIPY = """
import sys

class BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None

sys.meta_path.insert(0, BlockSciPy())
"""


BLOCK_NUMPY = BLOCK_SCIPY.replace("BlockSciPy", "BlockNumPy").replace('"scipy"', '"numpy"')

#: The modules of ``repro.experiments`` that import no grid.
NON_GRID_MODULES = [
    "repro.experiments",
    "repro.experiments.gridlib",
    "repro.experiments.orchestrator",
    "repro.experiments.report",
    "repro.experiments.runner",
]

LOADED = """
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "repro": sorted(name for name in sys.modules if name.split(".")[0] == "repro"),
}))
"""

HELP = """
import contextlib, io, json, sys
from repro.experiments import runner
with contextlib.redirect_stdout(io.StringIO()) as text:
    try:
        runner.main(["--help"])
    except SystemExit as stop:
        assert stop.code == 0, stop.code
assert "available: adaptive, availability, calibration" in " ".join(text.getvalue().split())
"""

#: Experiments that are closed-form design computations: none may load the
#: network simulator, the traffic generators or the service.
CLOSED_FORM = [
    "table1",
    "figure3",
    "figure4",
    "figure5",
    "figure6a",
    "figure6b",
    "headline",
    "calibration",
]


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_runner_and_service_imports_load_no_scipy():
    code = """
import json, sys
import repro.experiments.runner
import repro.service.server
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
    assert _run(code) == []


def test_reproduction_and_service_session_load_no_scipy():
    assert _run(SESSION) == []


def test_reproduction_and_service_run_with_scipy_blocked():
    assert _run(BLOCK_SCIPY + SESSION) == []


@pytest.mark.parametrize(
    "blocker, module", [(BLOCK_SCIPY, "scipy.special"), (BLOCK_NUMPY, "numpy")], ids=["scipy", "numpy"]
)
def test_the_blocker_blocks(blocker, module):
    code = blocker + f"""
import json
try:
    import {module}
except ModuleNotFoundError:
    print(json.dumps(["blocked"]))
"""
    assert _run(code) == ["blocked"]


def _experiment_modules(loaded: dict) -> list:
    return [name for name in loaded["repro"] if name.startswith("repro.experiments")]


def test_import_repro_loads_no_submodule():
    assert _run("import json, sys\nimport repro\n" + LOADED) == {"numpy": False, "repro": ["repro"]}


@pytest.mark.parametrize(
    "code", ["import json, sys\nimport repro.experiments.runner\n", HELP], ids=["import", "help"]
)
def test_runner_loads_no_numpy_and_no_grid(code):
    loaded = _run(code + LOADED)
    assert loaded["numpy"] is False
    assert _experiment_modules(loaded) == NON_GRID_MODULES


def test_help_runs_with_numpy_blocked():
    assert _run(BLOCK_NUMPY + HELP + LOADED)["numpy"] is False


@pytest.mark.parametrize("experiment", CLOSED_FORM)
def test_closed_form_experiment_loads_no_simulator(experiment):
    code = f"""
import contextlib, io, json, sys, tempfile
from repro.experiments import runner
with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(io.StringIO()):
    assert runner.main([{experiment!r}, "--manifest-dir", root]) == 0
""" + LOADED
    loaded = _run(code)
    heavy = [
        name
        for name in loaded["repro"]
        if name.split(".")[1:2] in (["netsim"], ["traffic"], ["service"])
    ]
    assert heavy == []
