"""Import-weight guard: nothing the package runs may load SciPy.

Importing ``scipy.special`` alone cost about 280 ms of every cold start,
more than a reproduction spends solving; the three functions the link's
closed forms need are ported in :mod:`repro.special`.  SciPy stays a test
oracle only.  These checks run in fresh interpreters:

* after importing the CLI runner and the service, and after a small
  reproduction and a service session, no ``scipy`` module is loaded;
* with ``scipy`` blocked by a meta-path finder (as on a host without it),
  a reproduction, a ``/design`` miss and a sweep job still succeed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

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


def _run(code: str) -> list:
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


def test_the_blocker_blocks():
    code = BLOCK_SCIPY + """
import json
try:
    import scipy.special
except ModuleNotFoundError:
    print(json.dumps(["blocked"]))
"""
    assert _run(code) == ["blocked"]
