"""The linter must run clean on this repository itself.

This is the acceptance test for the whole exercise: every rule the linter
enforces is an invariant the codebase actually satisfies.  A change that
introduces a wall-clock read into the simulator, drops a lock around
shared service state, or adds a slotless class to a hot module fails here
(and in the CI static-analysis job) before review.
"""

from __future__ import annotations

import os

from repro.analysis import lint_paths
from repro.analysis.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def test_src_tree_is_lint_clean():
    run = lint_paths([SRC])
    assert run.files_checked > 100, "the walker must actually traverse src/"
    messages = [
        f"{finding.location}: {finding.code} {finding.message}"
        for finding in run.findings
    ]
    assert run.findings == [], "\n".join(messages)


def test_cli_run_exits_zero(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
