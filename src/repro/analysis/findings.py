"""The lint finding record and its serialisation.

One :class:`Finding` is one rule violation at one source location.  The
``snippet`` field carries the stripped source line the finding points at,
which the text reporter prints for context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where, which rule, and why."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: The stripped source line the finding points at.
    snippet: str = field(default="", compare=False)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-reporter shape (``file``/``line``/``col`` for annotations)."""
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }
