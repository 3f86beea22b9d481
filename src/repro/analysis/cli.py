"""``repro-lint`` — the project's invariant linter, as a console script.

Exit codes are stable for CI and scripting:

* ``0`` — clean (no finding);
* ``1`` — findings;
* ``2`` — usage errors (a bad flag or a missing path).

``--json`` emits one machine-readable document (``file``/``line``/``col``
per finding) for CI annotations; the default text reporter prints
``path:line:col: CODE message`` plus the offending line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import LintRun, lint_paths
from .registry import all_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter: determinism, lock discipline, hot-path hygiene.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint (default: src)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable JSON report")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _report_text(run: LintRun, stream) -> None:
    for finding in run.findings:
        print(f"{finding.location}: {finding.code} {finding.message}", file=stream)
        if finding.snippet:
            print(f"    {finding.snippet}", file=stream)
    print(f"{len(run.findings)} finding(s) in {run.files_checked} file(s)", file=stream)


def _report_json(run: LintRun, stream) -> None:
    document = {
        "version": 1,
        "files_checked": run.files_checked,
        "findings": [finding.to_dict() for finding in run.findings],
    }
    json.dump(document, stream, indent=2, sort_keys=True)
    stream.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for lint_rule in all_rules():
            scope = f" [scope: {lint_rule.scope}]" if lint_rule.scope else ""
            print(f"{lint_rule.code}  {lint_rule.name}: {lint_rule.summary}{scope}")
        return 0

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")
    run = lint_paths(args.paths)

    reporter = _report_json if args.json else _report_text
    reporter(run, sys.stdout)
    return 1 if run.findings else 0
