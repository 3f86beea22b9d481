"""The lint engine: parse once, run every applicable rule, sort.

The public entry points are :func:`lint_source` (one source string — what
the fixture tests and the README snippet use), :func:`lint_file` and
:func:`lint_paths` (directory walk; what the CLI uses).  Each module is
parsed exactly once; rules receive a :class:`ModuleContext` carrying the
tree (with parent back-references), the resolved import map and the
path configuration, and return findings via :meth:`ModuleContext.finding`
so location/snippet bookkeeping lives in one place.  Every finding is
reported: no comment, file or flag switches a rule off.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from .astutil import ImportMap, attach_parents
from .config import CONFIG, LintConfig, normalize_path
from .findings import Finding
from .registry import PARSE_ERROR_CODE, all_rules

# Importing the rule modules registers their rules.
from . import concurrency as _concurrency  # noqa: F401  (registration import)
from . import determinism as _determinism  # noqa: F401  (registration import)
from . import hygiene as _hygiene  # noqa: F401  (registration import)

__all__ = ["ModuleContext", "LintRun", "lint_source", "lint_file", "lint_paths", "iter_python_files"]


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    path: str
    tree: ast.Module
    lines: List[str]
    config: LintConfig
    imports: ImportMap

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            path=self.path, line=line, col=col, code=code, message=message, snippet=snippet
        )


@dataclass
class LintRun:
    """The outcome of linting a path set."""

    findings: List[Finding] = field(default_factory=list, init=False)
    files_checked: int = field(default=0, init=False)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string; returns its findings, sorted."""
    normalized = normalize_path(path) if path != "<string>" else path
    lines = source.splitlines()
    try:
        tree = attach_parents(ast.parse(source))
    except SyntaxError as error:
        line = error.lineno or 1
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return [
            Finding(
                path=normalized,
                line=line,
                col=(error.offset or 0) + 1 if error.offset else 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {error.msg}",
                snippet=snippet,
            )
        ]
    context = ModuleContext(
        path=normalized,
        tree=tree,
        lines=lines,
        config=CONFIG,
        imports=ImportMap(tree),
    )
    findings: List[Finding] = []
    for lint_rule in all_rules():
        if lint_rule.scope is not None and not CONFIG.path_matches(
            normalized, getattr(CONFIG, lint_rule.scope)
        ):
            continue
        findings.extend(lint_rule.check(context))
    return sorted(findings)


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirectories, files in os.walk(path):
            subdirectories[:] = sorted(
                name
                for name in subdirectories
                if not name.startswith(".") and name != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def lint_paths(paths: Sequence[str]) -> LintRun:
    """Lint every Python file under ``paths``."""
    run = LintRun()
    for file_path in iter_python_files(paths):
        run.findings.extend(lint_file(file_path))
        run.files_checked += 1
    run.findings.sort()
    return run
