"""Hot-path and API hygiene rules (``RPR3xx``)."""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .astutil import dotted_name
from .registry import rule

__all__ = [
    "check_slots",
    "check_mutable_defaults",
    "check_silent_except",
    "check_all_drift",
]

#: Base classes that manage their own storage layout (``__slots__`` is
#: meaningless, harmful, or implied for their subclasses).
_SLOTS_EXEMPT_BASES = frozenset(
    {
        "NamedTuple", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
        "Protocol", "ABC", "type", "TypedDict", "SimpleNamespace",
    }
)

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
)


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        dotted = dotted_name(base)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
    return names


def _dataclass_slots(cls: ast.ClassDef) -> Optional[bool]:
    """``True``/``False`` for a dataclass with/without slots, else ``None``."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        dotted = dotted_name(target)
        if dotted is None or dotted.split(".")[-1] != "dataclass":
            continue
        if call is None:
            return False
        for keyword in call.keywords:
            if keyword.arg == "slots":
                return bool(
                    isinstance(keyword.value, ast.Constant) and keyword.value.value is True
                )
        return False
    return None


def _has_slots_assignment(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@rule(
    "RPR301",
    "slots-required",
    "classes in configured hot modules must be __slots__-shaped",
    scope="slots_modules",
)
def check_slots(ctx) -> List:
    findings = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = _base_names(cls)
        if bases & _SLOTS_EXEMPT_BASES:
            continue
        if any(name.endswith(("Error", "Exception", "Warning")) for name in bases):
            continue
        slots = _dataclass_slots(cls)
        if slots is True or _has_slots_assignment(cls):
            continue
        how = "@dataclass(slots=True)" if slots is False else "__slots__"
        findings.append(
            ctx.finding(
                cls,
                "RPR301",
                f"class {cls.name} lives in a hot module but has no "
                f"__slots__ — per-instance dicts dominate allocation traffic "
                f"here; declare {how}",
            )
        )
    return findings


@rule(
    "RPR302",
    "mutable-default-argument",
    "no mutable default arguments",
)
def check_mutable_defaults(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                name = getattr(node, "name", "<lambda>")
                findings.append(
                    ctx.finding(
                        default,
                        "RPR302",
                        f"mutable default argument in {name}() is shared "
                        "across calls; default to None and construct inside",
                    )
                )
    return findings


@rule(
    "RPR303",
    "silent-exception-swallow",
    "no bare except, no except Exception: pass",
)
def check_silent_except(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(
                ctx.finding(
                    node,
                    "RPR303",
                    "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                    "name the exception types",
                )
            )
            continue
        type_names = set()
        candidates = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for candidate in candidates:
            dotted = dotted_name(candidate)
            if dotted is not None:
                type_names.add(dotted.split(".")[-1])
        swallows = all(
            isinstance(statement, ast.Pass)
            or (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis
            )
            for statement in node.body
        )
        if swallows and type_names & {"Exception", "BaseException"}:
            findings.append(
                ctx.finding(
                    node,
                    "RPR303",
                    "except Exception: pass silently swallows every failure; "
                    "log it or narrow the type",
                )
            )
    return findings


def _module_all(tree: ast.Module) -> Optional[List[ast.Constant]]:
    """The ``__all__`` literal's elements, or ``None`` (absent/not literal)."""
    elements: Optional[List[ast.Constant]] = None
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            value = getattr(node, "value", None)
            if isinstance(node, ast.Assign) and isinstance(value, (ast.List, ast.Tuple)):
                constants = [
                    element
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                ]
                if len(constants) == len(value.elts):
                    elements = constants
                    continue
            # Augmented / computed __all__: give up rather than guess.
            return None
    return elements


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        names.add(element.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditionally-defined names (version guards) still count.
            for child in ast.walk(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(child.name)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
    return names


def _lazy_export_names(tree: ast.Module) -> Set[str]:
    """The string keys of a literal ``_LAZY_EXPORTS`` table, if the module
    also defines the PEP 562 ``__getattr__`` that resolves them.

    Whether each target module defines its name is left to the tests that
    resolve every ``__all__`` entry at run time.
    """
    names: Set[str] = set()
    has_getattr = False
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            has_getattr = True
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            names = {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return names if has_getattr else set()


@rule(
    "RPR304",
    "all-drift",
    "__all__ must match the module's actual public defs",
)
def check_all_drift(ctx) -> List:
    findings = []
    exported = _module_all(ctx.tree)
    if exported is None:
        return findings
    defined = _top_level_names(ctx.tree) | _lazy_export_names(ctx.tree)
    exported_names = {element.value for element in exported}
    for element in exported:
        if element.value not in defined:
            findings.append(
                ctx.finding(
                    element,
                    "RPR304",
                    f"__all__ exports {element.value!r} which is not defined "
                    "in this module (drift after a rename/removal?)",
                )
            )
    for node in ctx.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in exported_names:
            continue
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        findings.append(
            ctx.finding(
                node,
                "RPR304",
                f"public {kind} {node.name} is missing from __all__ (add it "
                "or rename it _private)",
            )
        )
    return findings
