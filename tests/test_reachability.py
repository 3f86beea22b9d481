"""Every definition in ``src/`` is reached by something other than a test.

The scan reads ``src/`` as ASTs and iterates to a fixed point:

* A module-level or class-level function, method, property or class is a
  *definition*, and so is each name a module-level assignment binds
  (dunders and the ``__all__``/``_LAZY_EXPORTS`` tables excepted), whose
  right-hand side belongs to it.  Nested functions belong to their
  enclosing definition.
* A name is *used* when live code in ``src/`` refers to it (an
  ``ast.Name`` that is read, an ``ast.Attribute``, an imported name, or an
  identifier-shaped string constant, which covers ``getattr`` tables), or
  when it appears as a word in ``examples/*.py``, ``README.md`` or
  ``perfbench/``.  Docstrings, the import re-exports of ``__init__.py``
  files and the ``__all__``/``_LAZY_EXPORTS`` entries are not uses.
* Dunders, definitions under a registering decorator (anything but the
  descriptor, dataclass, ``contextmanager`` and ``lru_cache``/``cache``
  decorators, which register nothing) and the ``http.server`` hooks count
  as reached without a reference.
* Round 1 flags every definition whose name no live code uses.  Each later
  round drops the flagged definitions' bodies (and the methods of flagged
  classes) from the live code and scans again, until nothing new is
  flagged.

``ALLOWLIST`` names the few definitions that only a test reaches on
purpose, each with its reason.  It can only shrink: an entry that is no
longer defined, or that the scan would reach without it, fails the guard.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Definitions kept although only a test reaches them: qualified name
#: (``module.Class.method``) -> why it has no other route.
ALLOWLIST: Dict[str, str] = {
    "repro.service.supervisor.Supervisor.active_worker_pid": (
        "the SIGKILL fault-injection test needs the running worker's pid"
    ),
}

#: Decorators that do not register a definition anywhere, so the
#: definition still needs a reference to count as reached.
_PLAIN_DECORATORS = frozenset(
    {"property", "staticmethod", "classmethod", "dataclass", "cached_property",
     "abstractmethod", "setter", "contextmanager", "lru_cache", "cache"}
)

#: Methods ``http.server.BaseHTTPRequestHandler`` calls by name.
_STDLIB_HOOKS = frozenset({"do_GET", "do_POST", "log_message", "handle_expect_100"})

#: Assignments whose string entries are export lists, not uses.
_EXPORT_TABLES = frozenset({"__all__", "_LAZY_EXPORTS"})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Definition:
    """One function, method, property, class or module constant of a scanned module."""

    qualname: str
    name: str
    always_reached: bool
    #: Names used by the definition's own body (nested definitions
    #: excluded), minus its own name.
    uses: Set[str] = field(default_factory=set)
    #: Qualified names of the definitions inside it (a class's methods).
    members: List[str] = field(default_factory=list)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _always_reached(node: ast.AST) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if name in _STDLIB_HOOKS:
        return True
    return any(_decorator_name(d) not in _PLAIN_DECORATORS for d in node.decorator_list)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _without_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    return body[1:] if body and _is_docstring(body[0]) else body


def _is_export_table(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id in _EXPORT_TABLES for t in targets)


def _constant_names(stmt: ast.stmt) -> List[str]:
    """The names a module-level assignment defines (dunders and export tables excepted)."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        target.id
        for target in targets
        if isinstance(target, ast.Name)
        and not (target.id.startswith("__") and target.id.endswith("__"))
        and target.id not in _EXPORT_TABLES
    ]


def _uses_in(node: ast.AST) -> Iterator[str]:
    """Names that one node refers to (not descending into its children)."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _IDENTIFIER.fullmatch(node.value):
            yield node.value


_DEFINITION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _body_uses(statements: Iterable[ast.stmt], *, is_init: bool) -> Set[str]:
    """Names used by ``statements``, skipping docstrings and export tables.

    Functions and classes nested inside a function count with it; the
    caller leaves out the definitions it scans on their own.
    """
    used: Set[str] = set()
    pending: List[ast.AST] = []
    for stmt in statements:
        if _is_export_table(stmt):
            continue
        if is_init and isinstance(stmt, ast.ImportFrom):
            continue
        pending.append(stmt)
    while pending:
        node = pending.pop()
        used.update(_uses_in(node))
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, _DEFINITION_NODES) and _is_docstring(node.body[0]):
            children.remove(node.body[0])
        pending.extend(children)
    return used


def scan_module(module: str, source: str, *, is_init: bool = False) -> Tuple[Set[str], List[Definition]]:
    """Return the names the module's top-level code uses and its definitions."""
    tree = ast.parse(source)
    definitions: List[Definition] = []

    def split(
        statements: List[ast.stmt], prefix: str, *, module_level: bool = False
    ) -> Tuple[List[ast.stmt], List[str]]:
        loose: List[ast.stmt] = []
        members: List[str] = []
        for stmt in statements:
            constants = _constant_names(stmt) if module_level else []
            if isinstance(stmt, _DEFINITION_NODES):
                members.append(visit(stmt, prefix))
            elif constants:
                uses = _body_uses([stmt], is_init=False)
                for name in constants:
                    definitions.append(Definition(f"{prefix}.{name}", name, False, uses - {name}))
            else:
                loose.append(stmt)
        return loose, members

    def visit(node: ast.AST, prefix: str) -> str:
        qualname = f"{prefix}.{node.name}"
        definition = Definition(qualname, node.name, _always_reached(node))
        definitions.append(definition)
        body = _without_docstring(node.body)
        outside_body = list(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            outside_body += node.bases + [k.value for k in node.keywords]
            body, definition.members = split(body, qualname)
        else:
            outside_body += [node.args] + ([node.returns] if node.returns else [])
        statements = body + [ast.Expr(part) for part in outside_body]
        definition.uses = _body_uses(statements, is_init=False) - {node.name}
        return qualname

    loose, _ = split(_without_docstring(tree.body), module, module_level=True)
    return _body_uses(loose, is_init=is_init), definitions


def scan(
    modules: Mapping[str, Tuple[str, bool]],
    external_words: FrozenSet[str] = frozenset(),
    allowlist: Iterable[str] = (),
) -> List[Set[str]]:
    """Flag unreached definitions, one set of qualified names per round.

    ``modules`` maps a dotted module name to its source and whether it is a
    package ``__init__``.  The returned list ends at the fixed point; the
    union of its sets is everything the scan would delete.
    """
    roots: Set[str] = set(external_words)
    definitions: Dict[str, Definition] = {}
    for module, (source, is_init) in modules.items():
        top_level, found = scan_module(module, source, is_init=is_init)
        roots |= top_level
        definitions.update((d.qualname, d) for d in found)
    allowed = set(allowlist)

    dead: Set[str] = set()
    rounds: List[Set[str]] = []
    while True:
        used = set(roots)
        for qualname, definition in definitions.items():
            if qualname not in dead:
                used |= definition.uses
        flagged = {
            qualname
            for qualname, definition in definitions.items()
            if qualname not in dead
            and qualname not in allowed
            and not definition.always_reached
            and definition.name not in used
        }
        if not flagged:
            return rounds
        rounds.append(flagged)
        dead |= flagged
        stack = list(flagged)
        while stack:
            for member in definitions[stack.pop()].members:
                if member not in dead:
                    dead.add(member)
                    stack.append(member)


def _source_modules() -> Dict[str, Tuple[str, bool]]:
    modules = {}
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_init = parts[-1] == "__init__"
        if is_init:
            parts = parts[:-1]
        modules[".".join(parts)] = (path.read_text(encoding="utf-8"), is_init)
    return modules


def _words_of(text: str) -> FrozenSet[str]:
    return frozenset(_IDENTIFIER.findall(text))


def _external_words() -> FrozenSet[str]:
    paths = [ROOT / "README.md", *sorted((ROOT / "examples").glob("*.py"))]
    paths += sorted(p for p in (ROOT / "perfbench").rglob("*") if p.is_file() and p.suffix in {".py", ".md", ".json"})
    words: Set[str] = set()
    for path in paths:
        words |= _words_of(path.read_text(encoding="utf-8"))
    return frozenset(words)


@pytest.fixture(scope="module")
def repo_scan_inputs():
    return _source_modules(), _external_words()


class TestRepository:
    def test_every_definition_in_src_is_reached(self, repo_scan_inputs):
        modules, words = repo_scan_inputs
        rounds = scan(modules, words, ALLOWLIST)
        unreached = sorted(set().union(*rounds))
        assert unreached == [], (
            "definitions in src/ that only tests (or nothing) reach; delete them, "
            f"move a parity reference into its tests' oracle.py, or allowlist with a reason: {unreached}"
        )

    def test_every_allowlist_entry_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWLIST.values())

    def test_allowlist_entries_are_defined(self, repo_scan_inputs):
        modules, _ = repo_scan_inputs
        defined = set()
        for module, (source, is_init) in modules.items():
            defined.update(d.qualname for d in scan_module(module, source, is_init=is_init)[1])
        assert sorted(set(ALLOWLIST) - defined) == []

    def test_allowlist_entries_are_needed(self, repo_scan_inputs):
        modules, words = repo_scan_inputs
        flagged_without_allowlist = set().union(*scan(modules, words))
        assert sorted(set(ALLOWLIST) - flagged_without_allowlist) == []


def _scan_sources(**sources: str) -> List[Set[str]]:
    modules = {}
    for name, source in sources.items():
        is_init = name.endswith("__init__")
        module = name[: -len("__init__")].rstrip("_") if is_init else name
        modules[module] = (source, is_init)
    return scan(modules)


class TestScanner:
    def test_a_def_reached_only_through_all_is_flagged(self):
        rounds = _scan_sources(
            pkg__init__="from pkg.mod import helper\n__all__ = ['helper']\n_LAZY_EXPORTS = {'helper': '.mod'}\n",
            mod="def helper():\n    return 1\n",
        )
        assert rounds == [{"mod.helper"}]

    def test_a_def_reached_through_a_getattr_string_is_not_flagged(self):
        rounds = _scan_sources(
            mod=(
                "class Code:\n"
                "    def apply_packed(self):\n"
                "        return 1\n"
                "def run(code):\n"
                "    return getattr(code, 'apply_packed')()\n"
                "run(Code())\n"
            ),
        )
        assert rounds == []

    def test_a_decorated_def_is_not_flagged(self):
        rounds = _scan_sources(
            mod=(
                "REGISTRY = {}\n"
                "def register(fn):\n"
                "    REGISTRY[fn.__name__] = fn\n"
                "    return fn\n"
                "@register\n"
                "def handler():\n"
                "    return 1\n"
            ),
        )
        assert rounds == []

    def test_a_descriptor_decorator_does_not_count_as_registering(self):
        rounds = _scan_sources(
            mod=(
                "class Box:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 1\n"
                "    @staticmethod\n"
                "    def make():\n"
                "        return Box()\n"
                "Box.make()\n"
            ),
        )
        assert rounds == [{"mod.Box.size"}]

    def test_a_contextmanager_decorator_does_not_count_as_registering(self):
        rounds = _scan_sources(
            mod=(
                "import contextlib\n"
                "@contextlib.contextmanager\n"
                "def scoped():\n"
                "    yield 1\n"
            ),
        )
        assert rounds == [{"mod.scoped"}]

    def test_an_lru_cache_decorator_does_not_count_as_registering(self):
        rounds = _scan_sources(
            mod=(
                "import functools\n"
                "@functools.lru_cache(maxsize=None)\n"
                "def table():\n"
                "    return 1\n"
            ),
        )
        assert rounds == [{"mod.table"}]

    def test_a_cache_decorator_does_not_count_as_registering(self):
        rounds = _scan_sources(
            mod=(
                "from functools import cache\n"
                "@cache\n"
                "def table():\n"
                "    return 1\n"
            ),
        )
        assert rounds == [{"mod.table"}]

    def test_a_two_step_chain_is_flagged_in_round_two(self):
        rounds = _scan_sources(
            mod=(
                "def leaf():\n"
                "    return 1\n"
                "def middle():\n"
                "    return leaf()\n"
            ),
        )
        assert rounds == [{"mod.middle"}, {"mod.leaf"}]

    def test_the_methods_of_a_flagged_class_stop_counting(self):
        rounds = _scan_sources(
            mod=(
                "def helper():\n"
                "    return 1\n"
                "class Used:\n"
                "    def method(self):\n"
                "        return 1\n"
                "class Unused:\n"
                "    def method(self):\n"
                "        return helper()\n"
                "Used().method()\n"
            ),
        )
        assert rounds == [{"mod.Unused"}, {"mod.helper"}]

    def test_a_docstring_mention_is_not_a_use(self):
        rounds = _scan_sources(
            mod=(
                '"""Call transmit for one block."""\n'
                "class Channel:\n"
                '    """See transmit."""\n'
                "    def transmit(self):\n"
                '        """transmit"""\n'
                "        return 1\n"
                "Channel()\n"
            ),
        )
        assert rounds == [{"mod.Channel.transmit"}]

    def test_recursion_alone_does_not_reach(self):
        rounds = _scan_sources(mod="def walk(n):\n    return walk(n - 1) if n else 0\n")
        assert rounds == [{"mod.walk"}]

    def test_dunders_and_http_hooks_are_reached(self):
        rounds = _scan_sources(
            mod=(
                "class Handler:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "    def do_GET(self):\n"
                "        pass\n"
                "    def log_message(self, *args):\n"
                "        pass\n"
                "Handler()\n"
            ),
        )
        assert rounds == []

    def test_an_import_outside_an_init_reaches(self):
        rounds = _scan_sources(
            pkg__init__="from pkg.mod import helper\n",
            mod="def helper():\n    return 1\n",
            user="from pkg.mod import helper\n",
        )
        assert rounds == []

    def test_a_store_of_the_name_is_not_a_use(self):
        rounds = _scan_sources(mod="def helper():\n    return 1\nhelper = None\n")
        assert rounds == [{"mod.helper"}]

    def test_a_string_reaches_only_a_def_it_names_exactly(self):
        rounds = _scan_sources(
            mod=(
                "def helper():\n    return 1\n"
                "def other():\n    return 2\n"
                "NAMES = ['helper', 'other()', 'call other']\n"
                "print(NAMES)\n"
            ),
        )
        assert rounds == [{"mod.other"}]

    def test_a_nested_function_belongs_to_its_enclosing_def(self):
        rounds = _scan_sources(
            mod=(
                "def leaf():\n    return 1\n"
                "def outer():\n"
                "    def inner():\n"
                "        return leaf()\n"
                "    return inner\n"
            ),
        )
        assert rounds == [{"mod.outer"}, {"mod.leaf"}]

    def test_names_in_a_signature_count_with_the_def(self):
        rounds = _scan_sources(
            mod=(
                "class Hint:\n    pass\n"
                "def default():\n    return 1\n"
                "def run(x: Hint = default()) -> Hint:\n    return x\n"
            ),
        )
        assert rounds == [{"mod.run"}, {"mod.Hint", "mod.default"}]

    def test_a_used_subclass_reaches_its_base(self):
        rounds = _scan_sources(
            mod=(
                "class Base:\n    pass\n"
                "class Child(Base):\n    pass\n"
                "Child()\n"
            ),
        )
        assert rounds == []

    def test_a_constant_named_only_in_all_is_flagged(self):
        rounds = _scan_sources(mod="__all__ = ['LIMIT']\nLIMIT = 3\n")
        assert rounds == [{"mod.LIMIT"}]

    def test_a_constant_read_by_a_function_is_reached(self):
        rounds = _scan_sources(
            mod="LIMIT = 3\ndef cap(x):\n    return min(x, LIMIT)\ncap(5)\n",
        )
        assert rounds == []

    def test_a_constant_named_in_the_readme_is_reached(self):
        modules = {"mod": ("LIMIT = 3\n", False)}
        assert scan(modules, _words_of("Set `LIMIT` to cap the sweep.")) == []

    def test_an_annotated_constant_is_a_definition(self):
        rounds = _scan_sources(mod="LIMIT: int = 3\n")
        assert rounds == [{"mod.LIMIT"}]

    def test_dunders_and_export_tables_are_not_definitions(self):
        rounds = _scan_sources(
            pkg__init__="__version__ = '1'\n_LAZY_EXPORTS = {'helper': '.mod'}\n__all__ = []\n",
        )
        assert rounds == []

    def test_a_dead_constant_takes_what_its_value_names_with_it(self):
        rounds = _scan_sources(
            mod="def build():\n    return {}\nTABLE = build()\n",
        )
        assert rounds == [{"mod.TABLE"}, {"mod.build"}]

    def test_a_tuple_unpacking_stays_top_level_code(self):
        rounds = _scan_sources(
            mod="def pair():\n    return 1, 2\nlow, high = pair()\n",
        )
        assert rounds == []

    def test_an_external_word_reaches(self):
        modules = {"mod": ("def helper():\n    return 1\n", False)}
        assert scan(modules, frozenset({"helper"})) == []

    def test_an_allowlisted_def_and_what_it_calls_are_reached(self):
        modules = {"mod": ("def leaf():\n    return 1\ndef hook():\n    return leaf()\n", False)}
        assert scan(modules, allowlist=["mod.hook"]) == []
