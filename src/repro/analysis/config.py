"""Where the invariant linter's scoped rules apply.

:data:`CONFIG` encodes *this repository's* invariants: which subtrees are
deterministic simulation paths (wall-clock and unordered iteration are
forbidden there), which package carries the threaded service (lock
discipline applies), which modules are hot enough that every class must
carry ``__slots__``, and which factory functions are allowed to mint an
unseeded OS-entropy generator as a constructor default.  These are facts
about the tree, not options: there is one record and nothing overrides it.

Paths are always matched in *module form* — ``repro/service/queue.py`` —
regardless of where the tree was checked out or whether the linter was
pointed at ``src/``, so the globs stay stable.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Tuple

__all__ = ["LintConfig", "CONFIG", "normalize_path"]


def normalize_path(path: str) -> str:
    """A filesystem path reduced to module form (``repro/...`` when possible).

    Findings and the path globs both use this form, so a run reports the
    same paths whether the linter was invoked on ``src``, ``src/repro`` or
    an absolute path.
    """
    posix = path.replace("\\", "/")
    parts = [part for part in posix.split("/") if part not in ("", ".")]
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return "/".join(parts)


class LintConfig:
    """Which paths the scoped rules cover (module form, fnmatch globs)."""

    #: Deterministic simulation paths: wall-clock reads (RPR103) and
    #: unordered iteration (RPR104) are forbidden here.
    deterministic_paths: Tuple[str, ...] = (
        "repro/netsim/*",
        "repro/coding/*",
        "repro/experiments/*",
        "repro/channel/*",
        "repro/simulation/*",
        "repro/traffic/*",
    )
    #: Threaded subtrees where lock discipline (RPR201/RPR202) applies.
    lock_paths: Tuple[str, ...] = ("repro/service/*",)
    #: Hot modules where every class must be ``__slots__``-shaped (RPR301).
    slots_modules: Tuple[str, ...] = (
        "repro/netsim/events.py",
        "repro/netsim/outcomes.py",
    )
    #: Function names allowed to call ``np.random.default_rng()`` with no
    #: seed — the constructor-default idiom ("no seed given, use OS
    #: entropy") every simulator entry point shares.
    rng_factory_functions: Tuple[str, ...] = (
        "__init__",
        "__post_init__",
        "resolve_rng",
    )

    def path_matches(self, path: str, globs: Tuple[str, ...]) -> bool:
        normalized = normalize_path(path)
        return any(fnmatch(normalized, glob) for glob in globs)


CONFIG = LintConfig()
