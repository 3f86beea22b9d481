"""Every definition in ``src/`` is reached by something other than a test.

The scan reads ``src/`` as ASTs and iterates to a fixed point:

* A module-level or class-level function, method, property or class is a
  *definition*, and so is each name a module-level assignment binds
  (dunders and the ``__all__``/``_LAZY_EXPORTS`` tables excepted), whose
  right-hand side belongs to it.  Nested functions belong to their
  enclosing definition.  A second definition of the same qualified name (a
  property's ``.setter``) merges into the first.
* Attributes are definitions too: each name a class-body assignment binds
  (dataclass and NamedTuple fields, class constants; the right-hand side
  belongs to it) and each ``self.<name>`` store in a method.  Stores of the
  same name in several methods are one definition.
* A module-level definition is *used* when live code in ``src/`` refers to
  it (an ``ast.Name`` that is read, an attribute other than a
  ``self.<name>`` load, an imported name, or an identifier-shaped string
  constant, which covers ``getattr`` tables), or when an external file
  names it.  Docstrings, the import re-exports of ``__init__.py`` files and
  the ``__all__``/``_LAZY_EXPORTS`` entries are not uses.  A function's
  own name in its body (recursion) is not a use; a method's is, since a
  bare name in a method refers to a module-level definition.
* A class member (method, property, nested class or attribute) needs a
  *read*: an attribute load ``.name``, an identifier-shaped string, a
  ``%(name)s`` placeholder or an external identifier.  A store, an
  augmented assignment, a constructor keyword, a parameter or a bare name
  does not read it.  A ``self.<name>`` load in a method of class ``C``
  reads ``<name>`` only on ``C``, its bases and its subclasses (matched by
  base name within ``src/``); other attribute loads read every member of
  that name.
* External files are ``README.md``, ``examples/*.py`` and ``perfbench/``,
  and only their identifiers count: ``NAME`` tokens and identifier-shaped
  strings of ``.py`` files, identifier-shaped strings of ``.json`` files,
  and the identifiers in the code spans and fenced blocks of ``.md``
  files.  Prose and comments reach nothing.
* Dunders, definitions under a registering decorator (anything but the
  descriptor, dataclass, ``contextmanager`` and ``lru_cache``/``cache``
  decorators, which register nothing), the names the standard library
  reads (``_STDLIB_HOOKS``), NamedTuple fields (records are read whole) and
  the attributes of ``Exception`` subclasses (the payload of whoever
  catches them) count as reached without a reference.
* Round 1 flags every definition whose name no live code uses (or reads).
  Each later round drops the flagged definitions' bodies (and the methods
  and attributes of flagged classes) from the live code and scans again,
  until nothing new is flagged.

It matches names, not objects, so it is blind to:

* a definition whose name some unrelated live code uses, or a member whose
  name some unrelated code reads through anything but ``self`` (``obj.x``
  reads every ``x``), which passes although nothing reaches it;
* a container attribute that is only mutated (``self.counts[key] += 1``
  loads ``self.counts``), which passes as read;
* an attribute read only through ``dataclasses.asdict``/``fields``, which
  it flags although a report reads it (keep such a field with an
  ``ALLOWLIST`` entry).

``ALLOWLIST`` names the few definitions that only a test reaches on
purpose, each with its reason.  It can only shrink: an entry that is no
longer defined, or that the scan would reach without it, fails the guard.
"""

from __future__ import annotations

import ast
import builtins
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

#: Methods and attributes the standard library reads by name: the
#: ``http.server``/``socketserver`` handler and server hooks,
#: ``logging.Logger.propagate`` and ``logging.Filter.filter``.
_STDLIB_HOOKS = frozenset(
    {"do_GET", "do_POST", "log_message", "handle_expect_100", "protocol_version",
     "wbufsize", "disable_nagle_algorithm", "close_connection", "daemon_threads",
     "propagate", "filter"}
)

#: Assignments whose string entries are export lists, not uses.
_EXPORT_TABLES = frozenset({"__all__", "_LAZY_EXPORTS"})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PLACEHOLDER = re.compile(r"%\(([A-Za-z_][A-Za-z0-9_]*)\)")


@dataclass
class Definition:
    """One function, method, property, class, constant or attribute of a scanned module."""

    qualname: str
    name: str
    always_reached: bool
    #: An attribute (a class-body assignment or a ``self.<name>`` store),
    #: which the payload classes' rule covers.
    is_field: bool = False
    is_class: bool = False
    #: Names used by the definition's own body (nested definitions
    #: excluded).  A function's own name is left out (recursion); a
    #: method's is not, since a bare name in a method is a module name.
    uses: Set[str] = field(default_factory=set)
    #: The names among ``uses`` that can read a class member: attribute
    #: loads other than ``self.<name>``, identifier-shaped strings and
    #: ``%(name)s`` placeholders, minus the definition's own name.
    reads: Set[str] = field(default_factory=set)
    #: ``self.<name>`` loads in a method's body, minus its own name: they
    #: read a member of the owner's class family only.
    self_reads: Set[str] = field(default_factory=set)
    #: Qualified names of the definitions inside it (a class's methods and attributes).
    members: List[str] = field(default_factory=list)
    #: A class's base names.
    bases: List[str] = field(default_factory=list)
    #: A class member's class (qualified name); empty for module-level definitions.
    owner: str = ""

    def merge(self, other: "Definition") -> None:
        """Fold in a second definition of the same name (a property's setter, another store)."""
        self.always_reached |= other.always_reached
        self.is_field &= other.is_field
        self.uses |= other.uses
        self.reads |= other.reads
        self.self_reads |= other.self_reads
        self.members += [m for m in other.members if m not in self.members]
        self.bases += other.bases


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _always_reached(node: ast.AST) -> bool:
    name = node.name
    if _is_dunder(name) or name in _STDLIB_HOOKS:
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


def _assigned_names(stmt: ast.stmt) -> List[str]:
    """The names a module- or class-level assignment defines (dunders and export tables excepted)."""
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
        and not _is_dunder(target.id)
        and target.id not in _EXPORT_TABLES
    ]


def _stored_attributes(method: ast.AST) -> List[str]:
    """The names a method stores as ``self.<name>`` (dunders excepted), in order."""
    names: List[str] = []
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and not _is_dunder(node.attr)
            and node.attr not in names
        ):
            names.append(node.attr)
    return names


def _uses_in(node: ast.AST, in_method: bool) -> Iterator[Tuple[str, str]]:
    """Names that one node refers to (not descending into its children).

    Each comes with its kind: ``"read"`` for an attribute load or a name in
    a string, ``"self"`` for a ``self.<name>`` load in a method, and
    ``"use"`` for a bare name, an import or a store, which read no member.
    """
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id, "use"
    elif isinstance(node, ast.Attribute):
        if not isinstance(node.ctx, ast.Load):
            yield node.attr, "use"
        elif in_method and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr, "self"
        else:
            yield node.attr, "read"
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], "use"
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _IDENTIFIER.fullmatch(node.value):
            yield node.value, "read"
        for name in _PLACEHOLDER.findall(node.value):
            yield name, "read"


_DEFINITION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _body_uses(
    statements: Iterable[ast.stmt], *, is_init: bool = False, in_method: bool = False
) -> Tuple[Set[str], Set[str], Set[str]]:
    """Names used by ``statements``, those that read any member, and ``self.<name>`` loads.

    Docstrings and export tables are skipped.  Functions and classes nested
    inside a function count with it; the caller leaves out the definitions
    it scans on their own.  ``self.<name>`` loads are told apart only in a
    method's own body (``in_method``), not inside a class nested in it,
    and they are not uses: no module-level name is reached through ``self``.
    """
    used: Set[str] = set()
    read: Set[str] = set()
    self_read: Set[str] = set()
    pending: List[Tuple[ast.AST, bool]] = []
    for stmt in statements:
        if _is_export_table(stmt):
            continue
        if is_init and isinstance(stmt, ast.ImportFrom):
            continue
        pending.append((stmt, in_method))
    while pending:
        node, scoped = pending.pop()
        for name, kind in _uses_in(node, scoped):
            if kind == "self":
                self_read.add(name)
                continue
            used.add(name)
            if kind == "read":
                read.add(name)
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, _DEFINITION_NODES) and _is_docstring(node.body[0]):
            children.remove(node.body[0])
        scoped &= not isinstance(node, ast.ClassDef)
        pending.extend((child, scoped) for child in children)
    return used, read, self_read


def scan_module(
    module: str, source: str, *, is_init: bool = False
) -> Tuple[Set[str], Set[str], List[Definition]]:
    """Return the names the module's top-level code uses and reads, and its definitions."""
    tree = ast.parse(source)
    definitions: List[Definition] = []

    def define(qualname: str, name: str, **kwargs) -> str:
        definitions.append(Definition(qualname, name, name in _STDLIB_HOOKS, **kwargs))
        return qualname

    def split(statements: List[ast.stmt], prefix: str, *, owner: str = "") -> Tuple[List[ast.stmt], List[str]]:
        loose: List[ast.stmt] = []
        members: List[str] = []
        for stmt in statements:
            names = _assigned_names(stmt)
            if isinstance(stmt, _DEFINITION_NODES):
                members.append(visit(stmt, prefix, owner))
                if owner and not isinstance(stmt, ast.ClassDef):
                    members += [
                        define(f"{prefix}.{name}", name, is_field=True, owner=owner)
                        for name in _stored_attributes(stmt)
                    ]
            elif names:
                uses, reads, _ = _body_uses([stmt])
                members += [
                    define(
                        f"{prefix}.{name}", name, is_field=bool(owner), owner=owner,
                        uses=uses - {name}, reads=reads - {name},
                    )
                    for name in names
                ]
            else:
                loose.append(stmt)
        return loose, members

    def visit(node: ast.AST, prefix: str, owner: str) -> str:
        qualname = f"{prefix}.{node.name}"
        is_class = isinstance(node, ast.ClassDef)
        definition = Definition(qualname, node.name, _always_reached(node), is_class=is_class, owner=owner)
        definitions.append(definition)
        body = _without_docstring(node.body)
        outside_body = list(node.decorator_list)
        if is_class:
            outside_body += node.bases + [k.value for k in node.keywords]
            definition.bases = [_decorator_name(base) for base in node.bases]
            body, definition.members = split(body, qualname, owner=qualname)
        else:
            outside_body += [node.args] + ([node.returns] if node.returns else [])
        statements = body + [ast.Expr(part) for part in outside_body]
        is_method = bool(owner) and not is_class
        uses, reads, self_reads = _body_uses(statements, in_method=is_method)
        definition.uses = uses if is_method else uses - {node.name}
        definition.reads, definition.self_reads = reads - {node.name}, self_reads - {node.name}
        return qualname

    loose, _ = split(_without_docstring(tree.body), module)
    uses, reads, _ = _body_uses(loose, is_init=is_init)
    return uses, reads, definitions


def _payload_classes(definitions: Mapping[str, Definition]) -> Set[str]:
    """Classes whose attributes count as reached: NamedTuples and exceptions, with their subclasses."""
    payload_bases = {"NamedTuple"} | {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    payload: Set[str] = set()
    while True:
        grown = {
            qualname
            for qualname, definition in definitions.items()
            if qualname not in payload and payload_bases.intersection(definition.bases)
        }
        if not grown:
            return payload
        payload |= grown
        payload_bases |= {definitions[qualname].name for qualname in grown}


def _class_families(definitions: Mapping[str, Definition]) -> Dict[str, Set[str]]:
    """Each class with its bases and subclasses, transitively, matched by base name."""
    classes = [qualname for qualname, definition in definitions.items() if definition.is_class]
    by_name: Dict[str, Set[str]] = {}
    for qualname in classes:
        by_name.setdefault(definitions[qualname].name, set()).add(qualname)
    parents = {
        qualname: set().union(*(by_name.get(base, set()) for base in definitions[qualname].bases))
        for qualname in classes
    }
    children: Dict[str, Set[str]] = {qualname: set() for qualname in parents}
    for qualname, bases in parents.items():
        for base in bases:
            children[base].add(qualname)

    def closure(start: str, edges: Mapping[str, Set[str]]) -> Set[str]:
        seen, stack = {start}, [start]
        while stack:
            for nxt in edges[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return seen

    return {qualname: closure(qualname, parents) | closure(qualname, children) for qualname in parents}


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
    root_uses: Set[str] = set(external_words)
    root_reads: Set[str] = set(external_words)
    definitions: Dict[str, Definition] = {}
    for module, (source, is_init) in modules.items():
        top_uses, top_reads, found = scan_module(module, source, is_init=is_init)
        root_uses |= top_uses
        root_reads |= top_reads
        for definition in found:
            if definition.qualname in definitions:
                definitions[definition.qualname].merge(definition)
            else:
                definitions[definition.qualname] = definition
    payload = _payload_classes(definitions)
    for definition in definitions.values():
        definition.always_reached |= definition.is_field and definition.owner in payload
    families = _class_families(definitions)
    allowed = set(allowlist)

    dead: Set[str] = set()
    rounds: List[Set[str]] = []
    while True:
        used, read = set(root_uses), set(root_reads)
        self_read: Dict[str, Set[str]] = {}
        for qualname, definition in definitions.items():
            if qualname not in dead:
                used |= definition.uses
                read |= definition.reads
                if definition.self_reads:
                    for cls in families[definition.owner]:
                        self_read.setdefault(cls, set()).update(definition.self_reads)
        flagged = {
            qualname
            for qualname, definition in definitions.items()
            if qualname not in dead
            and qualname not in allowed
            and not definition.always_reached
            # A class member needs a read; a module-level definition a use.
            and definition.name not in (read if definition.owner else used)
            and definition.name not in self_read.get(definition.owner, ())
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


#: A fenced code block or an inline code span of a Markdown file.
_MARKDOWN_CODE = re.compile(r"^```.*?^```|(`+)(.+?)\1", re.M | re.S)
#: A JSON string (key or value) that is an identifier.
_JSON_IDENTIFIER = re.compile(r'"([A-Za-z_][A-Za-z0-9_]*)"')


def _identifiers(text: str, suffix: str) -> FrozenSet[str]:
    """The identifiers an external file names: no prose, no comments.

    A ``.py`` file gives the names its syntax tree holds and its
    identifier-shaped strings, a ``.json`` file its identifier-shaped
    strings (keys and values), and a ``.md`` file the identifiers inside
    its code spans and fenced blocks.
    """
    if suffix == ".md":
        return frozenset(word for match in _MARKDOWN_CODE.finditer(text) for word in _IDENTIFIER.findall(match.group(0)))
    if suffix == ".json":
        return frozenset(_JSON_IDENTIFIER.findall(text))
    words: Set[str] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str) and _IDENTIFIER.fullmatch(node.value):
                words.add(node.value)
            continue
        for _, value in ast.iter_fields(node):
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, str):
                    words.update(_IDENTIFIER.findall(item))
    return frozenset(words)


def _external_words() -> FrozenSet[str]:
    paths = [ROOT / "README.md", *sorted((ROOT / "examples").glob("*.py"))]
    paths += sorted(p for p in (ROOT / "perfbench").rglob("*") if p.is_file() and p.suffix in {".py", ".md", ".json"})
    words: Set[str] = set()
    for path in paths:
        words |= _identifiers(path.read_text(encoding="utf-8"), path.suffix)
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
            "definitions in src/ that only tests (or nothing) reach or read; delete them, "
            f"move a parity reference into its tests' oracle.py, or allowlist with a reason: {unreached}"
        )

    def test_every_allowlist_entry_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWLIST.values())

    def test_allowlist_entries_are_defined(self, repo_scan_inputs):
        modules, _ = repo_scan_inputs
        defined = set()
        for module, (source, is_init) in modules.items():
            defined.update(d.qualname for d in scan_module(module, source, is_init=is_init)[2])
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
        assert scan(modules, _identifiers("Set `LIMIT` to cap the sweep.", ".md")) == []

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

    def test_a_property_setter_keeps_its_getters_uses(self):
        rounds = _scan_sources(
            mod=(
                "def helper():\n    return 1\n"
                "class Box:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return helper()\n"
                "    @size.setter\n"
                "    def size(self, value):\n"
                "        pass\n"
                "print(Box().size)\n"
            ),
        )
        assert rounds == []

    def test_a_member_reached_only_by_a_bare_name_or_parameter_is_flagged(self):
        rounds = _scan_sources(
            mod=(
                "class Box:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 1\n"
                "    def grow(self):\n"
                "        return 2\n"
                "def area(size):\n"
                "    return size * size\n"
                "def run(grow):\n"
                "    return grow()\n"
                "print(area(2), run(len), Box())\n"
            ),
        )
        assert rounds == [{"mod.Box.size", "mod.Box.grow"}]

    def test_a_method_calling_the_module_function_of_its_name_reaches_it(self):
        rounds = _scan_sources(
            mod=(
                "def relative_error(a, b):\n"
                "    return a - b\n"
                "class Comparison:\n"
                "    @property\n"
                "    def relative_error(self):\n"
                "        return relative_error(1, 2)\n"
                "    def __str__(self):\n"
                "        return str(self.relative_error)\n"
                "class Table:\n"
                "    def relative_error(self):\n"
                "        return 0\n"
                "print(Comparison(), Table())\n"
            ),
        )
        assert rounds == [{"mod.Table.relative_error"}]

    def test_a_logging_filter_method_is_reached(self):
        rounds = _scan_sources(
            mod=(
                "import logging\n"
                "class TagFilter(logging.Filter):\n"
                "    def filter(self, record):\n"
                "        return True\n"
                "logging.getLogger().addFilter(TagFilter())\n"
            ),
        )
        assert rounds == []

    def test_prose_and_comments_do_not_reach_but_code_does(self):
        modules = {
            "mod": (
                "def spans():\n    return 1\n"
                "def fenced():\n    return 2\n"
                "def quoted():\n    return 3\n"
                "def keyed():\n    return 4\n"
                "def prose():\n    return 5\n"
                "def commented():\n    return 6\n",
                False,
            )
        }
        words = (
            _identifiers("Call `spans()`, not prose.\n\n```python\nfenced()\n```\n", ".md")
            | _identifiers("# commented\nrun('quoted', 'commented now')\n", ".py")
            | _identifiers('{"keyed": ["prose text"]}', ".json")
        )
        assert scan(modules, words) == [{"mod.prose", "mod.commented"}]


class TestFields:
    def test_an_attribute_load_reads_a_field(self):
        rounds = _scan_sources(
            mod=(
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Result:\n"
                "    total: int\n"
                "    note: str\n"
                "class Counter:\n"
                "    def __init__(self):\n"
                "        self.count = 0\n"
                "        self.ticks = 0\n"
                "    def tick(self):\n"
                "        self.ticks += 1\n"
                "        return self.count\n"
                "print(Result(total=1, note='x').total, Counter().tick())\n"
            ),
        )
        assert rounds == [{"mod.Result.note", "mod.Counter.ticks"}]

    def test_a_store_or_constructor_keyword_is_not_a_read(self):
        rounds = _scan_sources(
            mod=(
                "class Box:\n"
                "    size: int = 0\n"
                "box = Box(size=3)\n"
                "box.size = 4\n"
            ),
        )
        assert rounds == [{"mod.Box.size"}]

    def test_a_bare_name_does_not_read_a_field(self):
        rounds = _scan_sources(
            mod=(
                "class Box:\n"
                "    def __init__(self, size):\n"
                "        self.size = size\n"
                "def area(size):\n"
                "    return size * size\n"
                "print(area(2), Box(2))\n"
            ),
        )
        assert rounds == [{"mod.Box.size"}]

    def test_a_field_stored_in_two_methods_is_one_definition(self):
        rounds = _scan_sources(
            mod=(
                "class Box:\n"
                "    size: int = 0\n"
                "    def grow(self):\n"
                "        self.size = 2\n"
                "    def shrink(self):\n"
                "        self.size = 1\n"
                "box = Box()\n"
                "box.grow()\n"
                "box.shrink()\n"
            ),
        )
        assert rounds == [{"mod.Box.size"}]

    def test_a_placeholder_reads_its_name(self):
        rounds = _scan_sources(
            mod=(
                "class Record:\n"
                "    def __init__(self):\n"
                "        self.shard_tag = ''\n"
                "        self.unused = ''\n"
                "FORMAT = '%(levelname)s%(shard_tag)s: %(message)s'\n"
                "print(FORMAT % vars(Record()))\n"
            ),
        )
        assert rounds == [{"mod.Record.unused"}]

    def test_an_identifier_string_reads_a_field(self):
        rounds = _scan_sources(
            mod=(
                "class Record:\n"
                "    total: int = 0\n"
                "print(getattr(Record(), 'total'))\n"
            ),
        )
        assert rounds == []

    def test_namedtuple_fields_are_reached(self):
        rounds = _scan_sources(
            mod=(
                "from typing import NamedTuple\n"
                "class Row(NamedTuple):\n"
                "    source: int\n"
                "    payload: int\n"
                "print(tuple(Row(1, 2)))\n"
            ),
        )
        assert rounds == []

    def test_exception_attributes_are_reached(self):
        rounds = _scan_sources(
            errors=(
                "class ReproError(Exception):\n"
                "    pass\n"
                "class ShardError(ReproError):\n"
                "    def __init__(self, index):\n"
                "        self.index = index\n"
                "        super().__init__(index)\n"
                "class BadValue(ValueError):\n"
                "    code: int = 3\n"
            ),
            user="from errors import ShardError, BadValue\nraise ShardError(BadValue())\n",
        )
        assert rounds == []

    def test_stdlib_read_attributes_are_reached(self):
        rounds = _scan_sources(
            mod=(
                "class Handler:\n"
                "    protocol_version = 'HTTP/1.1'\n"
                "    wbufsize = -1\n"
                "    disable_nagle_algorithm = True\n"
                "    def do_GET(self):\n"
                "        self.close_connection = True\n"
                "class Server:\n"
                "    def __init__(self, logger):\n"
                "        self.daemon_threads = True\n"
                "        self.propagate = False\n"
                "print(Handler, Server)\n"
            ),
        )
        assert rounds == []

    def test_a_field_only_a_flagged_method_reads_is_flagged_in_round_two(self):
        rounds = _scan_sources(
            mod=(
                "class Meter:\n"
                "    def __init__(self):\n"
                "        self.total = 0\n"
                "    def add(self, x):\n"
                "        self.total += x\n"
                "    def report(self):\n"
                "        return self.total\n"
                "Meter().add(1)\n"
            ),
        )
        assert rounds == [{"mod.Meter.report"}, {"mod.Meter.total"}]

    def test_a_dead_field_takes_what_its_default_names_with_it(self):
        rounds = _scan_sources(
            mod=(
                "from dataclasses import dataclass, field\n"
                "def make_table():\n"
                "    return {}\n"
                "@dataclass\n"
                "class Config:\n"
                "    table: dict = field(default_factory=make_table)\n"
                "print(Config())\n"
            ),
        )
        assert rounds == [{"mod.Config.table"}, {"mod.make_table"}]

    def test_a_self_load_does_not_read_another_classes_member(self):
        rounds = _scan_sources(
            mod=(
                "class Meter:\n"
                "    def total(self):\n"
                "        return self.limit()\n"
                "    def limit(self):\n"
                "        return 1\n"
                "class Gauge:\n"
                "    def __init__(self):\n"
                "        self.limit = 2\n"
                "print(Meter().total(), Gauge())\n"
            ),
        )
        assert rounds == [{"mod.Gauge.limit"}]

    def test_a_self_load_reads_its_bases_and_subclasses_members(self):
        rounds = _scan_sources(
            mod=(
                "class Base:\n"
                "    def run(self):\n"
                "        return self.step()\n"
                "    def scale(self):\n"
                "        return 2\n"
                "class Child(Base):\n"
                "    def step(self):\n"
                "        return self.scale()\n"
                "class Other:\n"
                "    def step(self):\n"
                "        return 3\n"
                "print(Child().run(), Other())\n"
            ),
        )
        assert rounds == [{"mod.Other.step"}]
