"""The rule registry.

A rule is a function from a parsed module to findings, registered under a
stable code.  Codes are grouped by invariant family:

* ``RPR1xx`` — determinism (seeding, wall clock, iteration order);
* ``RPR2xx`` — concurrency (lock discipline);
* ``RPR3xx`` — hot-path and API hygiene.

``RPR001`` is reserved for files the linter cannot parse.  A rule may be
*scoped*: its ``scope`` names a :class:`~repro.analysis.config.LintConfig`
field holding path globs, and the engine only runs it on matching modules
(e.g. wall-clock reads are forbidden in simulation paths, not in the CLI).
Scope is the only thing that decides where a rule runs: every registered
rule runs on every module in its scope, and none can be switched off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["Rule", "rule", "all_rules", "PARSE_ERROR_CODE"]

#: Emitted (outside the registry) when a file fails to parse.
PARSE_ERROR_CODE = "RPR001"


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    code: str
    name: str
    summary: str
    check: Callable
    #: ``LintConfig`` field naming the path globs this rule is confined to
    #: (``None`` = every linted file).
    scope: Optional[str] = None


_REGISTRY: Dict[str, Rule] = {}


def rule(code: str, name: str, summary: str, *, scope: Optional[str] = None):
    """Class decorator registering ``check(ctx)`` under ``code``."""

    def decorate(check: Callable) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code!r}")
        _REGISTRY[code] = Rule(code=code, name=name, summary=summary, check=check, scope=scope)
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]
