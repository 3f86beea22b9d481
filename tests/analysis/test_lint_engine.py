"""The engine reports every finding: parse errors, module-form paths, no suppression.

The linter has one rule set and no way to switch a rule off, so a comment
that looks like a suppression is only a comment: the finding on its line
is still reported, and a malformed one is not a finding of its own.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import CONFIG, all_rules, iter_python_files, lint_source, normalize_path

SIM_PATH = "repro/netsim/fixture.py"


def test_syntax_error_reports_rpr001():
    findings = lint_source("def broken(:\n", path=SIM_PATH)
    assert [finding.code for finding in findings] == ["RPR001"]


def test_normalize_path_cuts_at_repro_package():
    assert normalize_path("src/repro/service/queue.py") == "repro/service/queue.py"
    assert normalize_path("/abs/checkout/src/repro/netsim/core.py") == (
        "repro/netsim/core.py"
    )
    assert normalize_path("./tools/script.py") == "tools/script.py"


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.time()  # repro-lint: disable=RPR103\n",
        "# repro-lint: disable-file=RPR103\nimport time\nt = time.time()\n",
        "import time\nt = time.time()  # repro-lint: disable=all\n",
        "# repro-lint: disable-file=all\nimport time\nt = time.time()\n",
    ],
    ids=["line", "file", "line-all", "file-all"],
)
def test_a_disable_comment_does_not_suppress_the_finding(source):
    findings = lint_source(source, path=SIM_PATH)
    assert [(finding.code, finding.line) for finding in findings] == [
        ("RPR103", source.count("\n"))
    ]


def test_a_malformed_disable_comment_is_only_a_comment():
    assert lint_source("x = 1  # repro-lint: disalbe=RPR101\n", path=SIM_PATH) == []


def test_every_rule_scope_names_a_path_glob_field_of_the_config():
    scopes = {lint_rule.scope for lint_rule in all_rules()} - {None}
    assert scopes == {"deterministic_paths", "lock_paths", "slots_modules"}
    for scope in scopes:
        globs = getattr(CONFIG, scope)
        assert globs and all(glob.startswith("repro/") for glob in globs)


def test_iter_python_files_walks_sorted_and_skips_hidden_and_cache_dirs(tmp_path):
    for relative in (
        "b/z.py", "b/a.py", "a.py", "notes.txt",
        ".hidden/skip.py", "__pycache__/skip.py", "b/__pycache__/skip.py",
    ):
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("x = 1\n", encoding="utf-8")
    single = tmp_path / "b" / "z.py"
    found = [
        os.path.relpath(path, tmp_path).replace(os.sep, "/")
        for path in iter_python_files([str(tmp_path), str(single)])
    ]
    assert found == ["a.py", "b/a.py", "b/z.py", "b/z.py"]
