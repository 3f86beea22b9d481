"""Each experiment run alone prints exactly its section of the pinned full report.

``repro-experiments`` with no names prints every experiment's section in
:func:`~repro.experiments.orchestrator.available_experiments` order;
``perfbench/pins.json`` pins the SHA-256 of that report.  Every experiment
here runs in a fresh ``python -m repro.experiments.runner <name>`` process,
so an experiment that only worked because another module had been imported
first (an import-order dependency the lazy exports could expose) fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PINS = os.path.join(REPO_ROOT, "perfbench", "pins.json")


def _fresh_python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout


def test_each_experiment_alone_prints_its_section_of_the_pinned_report(tmp_path):
    with open(PINS, encoding="utf-8") as handle:
        pinned = json.load(handle)["paper_cold"]["stdout_sha256"]
    # The shipped experiments, in report order (this process may have
    # registered test grids).
    names = _fresh_python(
        "-c",
        "from repro.experiments.orchestrator import available_experiments\n"
        "print(' '.join(available_experiments()))",
    ).split()
    assert len(names) == 12
    sections = []
    for name in names:
        output = _fresh_python(
            "-m", "repro.experiments.runner", name, "--manifest-dir", str(tmp_path)
        )
        title = f"Experiment {name}"
        assert output.startswith(f"{title}\n{'=' * len(title)}\n"), output[:200]
        assert output.count("\nExperiment ") == 0, name
        sections.append(output)
    assert hashlib.sha256("".join(sections).encode("utf-8")).hexdigest() == pinned
