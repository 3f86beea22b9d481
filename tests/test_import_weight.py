"""Import-weight guard: the package must not pull in the heavy SciPy modules.

``scipy.stats`` and ``scipy.optimize`` together cost about half a second of
import time, more than a warm reproduction spends solving.  The package uses
only ``scipy.special``; a stray import anywhere in the import graph of the
CLI would silently put that half second back on every cold run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

CHILD = """
import json, sys
import repro.experiments.runner
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_runner_import_leaves_scipy_stats_and_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    assert "scipy.special" in loaded
    heavy = [
        name
        for name in loaded
        if name.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"])
    ]
    assert heavy == []
