"""End-to-end tests for the ``repro-lint`` command line interface.

Exit codes are part of the contract (CI scripts branch on them), so they
are pinned here: 0 clean, 1 findings, 2 usage errors (a bad flag or a
missing path).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.cli import build_parser, main

DIRTY = "import random\nvalue = random.random()\n"
CLEAN = "def double(x):\n    return 2 * x\n"


@pytest.fixture()
def sim_tree(tmp_path, monkeypatch):
    """A tiny checkout with one dirty and one clean deterministic module."""
    package = tmp_path / "repro" / "netsim"
    package.mkdir(parents=True)
    (package / "dirty.py").write_text(DIRTY, encoding="utf-8")
    (package / "clean.py").write_text(CLEAN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, sim_tree, capsys):
        assert main([os.path.join("repro", "netsim", "clean.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, sim_tree, capsys):
        assert main(["repro"]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out
        assert "repro/netsim/dirty.py:2" in out

    def test_missing_path_exits_two(self, sim_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/dir"])
        assert excinfo.value.code == 2

    def test_one_missing_path_among_existing_ones_exits_two(self, sim_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", "no/such/file.py"])
        assert excinfo.value.code == 2
        assert "no such path(s): no/such/file.py" in capsys.readouterr().err

    def test_unparsable_file_exits_one_with_rpr001(self, sim_tree, capsys):
        (sim_tree / "repro" / "netsim" / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert main([os.path.join("repro", "netsim", "broken.py")]) == 1
        assert "repro/netsim/broken.py:1:" in capsys.readouterr().out

    def test_absolute_paths_report_module_form(self, sim_tree, capsys):
        assert main([str(sim_tree / "repro")]) == 1
        out = capsys.readouterr().out
        assert "repro/netsim/dirty.py:2:" in out
        assert str(sim_tree) not in out

    @pytest.mark.parametrize(
        "flag", ["--strict", "--no-baseline", "--write-baseline", "--select=RPR101"]
    )
    def test_bad_flag_exits_two(self, sim_tree, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonReport:
    def test_document_shape(self, sim_tree, capsys):
        assert main(["repro", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files_checked"] == 2
        (finding,) = document["findings"]
        assert finding["code"] == "RPR101"
        assert finding["file"] == "repro/netsim/dirty.py"
        assert finding["line"] == 2
        assert set(document) == {"version", "files_checked", "findings"}

    def test_clean_document_exits_zero(self, sim_tree, capsys):
        assert main([os.path.join("repro", "netsim", "clean.py"), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {"version": 1, "files_checked": 1, "findings": []}


class TestFlags:
    def test_parser_takes_only_paths_json_and_list_rules(self):
        options = {
            action.option_strings[-1] if action.option_strings else action.dest
            for action in build_parser()._actions
        }
        assert options == {"--help", "paths", "--json", "--list-rules"}

    def test_list_rules_prints_catalogue(self, sim_tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR101", "RPR102", "RPR103", "RPR104",
                     "RPR201", "RPR202", "RPR301", "RPR302", "RPR303", "RPR304"):
            assert code in out

    def test_module_entry_point_matches_cli(self, sim_tree):
        from repro.analysis.__main__ import main as module_main

        assert module_main is main
