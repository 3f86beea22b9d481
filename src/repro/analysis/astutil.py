"""Shared AST plumbing for the lint rules.

The engine parses each module once and hands rules a tree whose nodes
carry ``parent`` back-references (:func:`attach_parents`), so rules can
answer structural questions — "is this access inside a ``with self._lock``
block?", "what function encloses this call?" — without each maintaining
its own visitor stack.  :class:`ImportMap` resolves local names back to
the canonical dotted path they were imported from, so ``import numpy as
np`` and ``from numpy.random import default_rng`` trigger the same rules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

__all__ = [
    "attach_parents",
    "ancestors",
    "enclosing_function",
    "dotted_name",
    "ImportMap",
    "is_self_attribute",
]


def attach_parents(tree: ast.AST) -> ast.AST:
    """Set a ``parent`` attribute on every node; returns ``tree``."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
    return tree


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The chain of parents from ``node`` (exclusive) to the module root."""
    current = getattr(node, "parent", None)
    while current is not None:
        yield current
        current = getattr(current, "parent", None)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    """The innermost ``def``/``async def`` lexically containing ``node``."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything richer."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def is_self_attribute(node: ast.AST) -> bool:
    """Whether ``node`` is ``self.<attribute>``."""
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"


class ImportMap:
    """Local-name -> canonical dotted path resolution for one module."""

    def __init__(self, tree: ast.AST):
        #: ``np -> numpy``, ``rnd -> random`` (``import x [as y]``).
        self.modules: dict = {}
        #: ``default_rng -> numpy.random.default_rng`` (``from m import n [as y]``).
        self.names: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        # ``import numpy.random as npr`` binds the submodule.
                        self.modules[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the *top* package.
                        top = alias.name.split(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Canonical dotted path of a call target, or ``None``.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        whatever ``numpy`` was imported as; a bare ``default_rng`` resolves
        through its ``from`` import.  Calls on local objects (``self.x()``,
        ``rng.random()``) resolve to ``None`` — rules only match canonical
        module paths, so locals can never false-positive.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.names:
            resolved = self.names[head]
            return f"{resolved}.{rest}" if rest else resolved
        if head in self.modules:
            resolved = self.modules[head]
            return f"{resolved}.{rest}" if rest else resolved
        return None
