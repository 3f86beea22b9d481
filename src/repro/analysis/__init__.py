"""``repro.analysis`` — the project's AST-based invariant linter.

Statically enforces the conventions every load-bearing guarantee in this
reproduction rests on:

* **determinism** (``RPR1xx``) — all randomness from plumbed seeds, no
  wall clock or set-iteration order on simulation paths;
* **lock discipline** (``RPR2xx``) — state observed under ``with
  self._lock:`` must always be accessed under it;
* **hot-path / API hygiene** (``RPR3xx``) — ``__slots__`` in hot modules,
  no mutable defaults, no silent exception swallowing, no ``__all__``
  drift.

There is one rule set and no way to suppress a finding: a violation is
fixed at the source.  Run it as ``repro-lint src/`` (console script) or
call :func:`lint_source` / :func:`lint_paths` directly.  See
``docs/ARCHITECTURE.md`` ("Static analysis") for the rule catalogue and
how to add a rule.
"""

from .config import CONFIG, LintConfig, normalize_path
from .engine import LintRun, iter_python_files, lint_file, lint_paths, lint_source
from .findings import Finding
from .registry import Rule, all_rules

__all__ = [
    "CONFIG",
    "Finding",
    "LintConfig",
    "LintRun",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "normalize_path",
]
