"""Every defaulted parameter in ``src/`` is set by something other than a test.

A *knob* is a parameter with a default of any function, method or
constructor in ``src/``, or a dataclass (or NamedTuple) field with a
default that is an ``__init__`` parameter.  The guard needs each knob to be
set by at least one call that passes it:

* by keyword, by position (``self``/``cls`` excluded), or through a ``*``
  (every position from there on) or ``**`` (every keyword) expansion;
* in a call whose callee is the knob's function by name: ``f(...)`` for a
  module-level or nested function, ``obj.m(...)`` for a method (or a
  module function reached as ``module.f``), ``C(...)``, ``cls(...)`` in
  ``C``'s body, ``type(self)(...)`` and ``super().__init__(...)`` for a
  constructor, ``functools.partial(f, ...)`` for ``f``, and
  ``dataclasses.replace(self, ...)`` for the enclosing dataclass's fields
  (``replace(other, name=...)`` sets every dataclass field of that name).

Calls count from the live code of ``src/`` (what the reachability guard in
``test_reachability.py`` does not flag; its scanner and its module loader
are reused here), ``examples/*.py``, ``perfbench/*.py`` and the
``python`` blocks of ``README.md`` and ``docs/*.md``.  Tests never count:
a value only a test passes is a constant a test could monkeypatch.

Exempt without a call: the fields of ``PaperConfig`` (the paper's parameter
record, bound by the service and set by ``with_overrides``),
``field(init=False)``, ``ClassVar`` attributes, and the signatures the
standard library fixes (dunders other than ``__init__``/``__call__`` and the
hooks in ``_STDLIB_HOOKS``).

Like the reachability guard it matches names, not objects: a call of any
``run(...)`` sets the same-named parameter of every ``run`` in ``src/``, and
a call through a variable (``functions.shards(...)``) reaches nothing.  It
follows no inheritance: a dataclass's inherited fields and a constructor a
class inherits without its own ``__init__`` are not matched (``src/`` has
neither).

``ALLOWLIST`` names the few knobs kept although only a test sets them.
Each entry gives one of two reasons: (a) a deployment setting (an address,
a port or a path), or (b) a test seam that injects a clock, an RNG stream
or a fake that a test needs to reach a reference or a fault.  It can only
shrink: an entry that is no longer a knob, or that a caller already sets,
fails the guard.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

from test_reachability import ROOT, _STDLIB_HOOKS, _external_words, _source_modules, scan
from test_reachability import ALLOWLIST as REACHABILITY_ALLOWLIST

#: Knobs kept although only a test sets them: ``module.Qual:parameter`` ->
#: ``"(a) ..."`` (a deployment setting) or ``"(b) ..."`` (a test seam).
ALLOWLIST: Dict[str, str] = {
    "repro.coding.montecarlo.estimate_ber_monte_carlo:rng": (
        "(b) the round-trip oracle test hands the estimator and the oracle one generator "
        "each and compares their final states"
    ),
    "repro.netsim.engine.NetworkSimulator.__init__:rng": (
        "(b) the bit-exact round-trip test shares one generator between the engine and "
        "its fault model, which a seed cannot express"
    ),
    "repro.service.queue.DurableJobQueue.claim_next:now_s": (
        "(b) an injected clock: the queue tests step time past a retry's not-before "
        "instead of sleeping"
    ),
    "repro.service.queue.DurableJobQueue.next_retry_delay_s:now_s": (
        "(b) an injected clock: the backoff-eligibility test reads the delay at a chosen time"
    ),
    "repro.traffic.generators.UniformTrafficGenerator.__init__:rng": (
        "(b) an injected generator selects the scalar reference loop, which the "
        "exact-draw tests compare with NumPy's own calls"
    ),
    "repro.traffic.generators.HotspotTrafficGenerator.__init__:rng": (
        "(b) an injected generator is the stream the exact-draw tests share with the "
        "NumPy oracle"
    ),
    "repro.traffic.generators._BaseGenerator.generate:start_time_s": (
        "(b) the decoded-draw tests start arrivals next to the largest float to reach "
        "the arrival-time overflow"
    ),
}

#: Classes whose fields are exempt: the paper's parameter record.
_PARAMETER_RECORDS = frozenset({"repro.config.PaperConfig"})

#: Dunders whose signature a caller, not the standard library, chooses.
_CALLED_DUNDERS = frozenset({"__init__", "__call__"})

#: The callee of ``replace(other, ...)``, whose dataclass is unknown.
_REPLACE = "<replace>"

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


@dataclass(frozen=True)
class Knob:
    """One defaulted parameter or dataclass field."""

    key: str
    #: The name a call uses to reach it: the function's, or a constructor's class.
    callee: str
    name: str
    #: Index among the positional arguments a call passes; ``None`` for a
    #: keyword-only parameter.
    position: Optional[int]
    keyword: bool
    #: ``"function"`` (a function or constructor parameter), ``"method"``
    #: (reached through an attribute only, never a bare name) or
    #: ``"field"`` (also set by ``replace(other, name=...)``).
    kind: str


@dataclass(frozen=True)
class Call:
    """One call site, reduced to what it can set."""

    callee: str
    bare: bool
    positional: int
    star: bool
    keywords: FrozenSet[str]
    double_star: bool


def _name_of(node: ast.expr) -> str:
    """The last name of ``name``, ``a.name``, ``name[...]`` or ``a.name[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "id", getattr(node, "attr", ""))


def _decorator_names(node: ast.AST) -> Set[str]:
    return {_name_of(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _dataclass_kw_only(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and _name_of(decorator.func) == "dataclass":
            flag = _keyword(decorator, "kw_only")
            return isinstance(flag, ast.Constant) and bool(flag.value)
    return False


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or NamedTuple: its annotated class attributes are constructor parameters."""
    return "dataclass" in _decorator_names(node) or "NamedTuple" in map(_name_of, node.bases)


def _field_call(value: Optional[ast.expr]) -> Optional[ast.Call]:
    return value if isinstance(value, ast.Call) and _name_of(value.func) == "field" else None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    return next((k.value for k in call.keywords if k.arg == name), None)


def _record_knobs(node: ast.ClassDef, qualname: str) -> Iterator[Knob]:
    """The knobs of a dataclass's or NamedTuple's own ``__init__`` fields.

    ``src/`` subclasses no dataclass, so inherited fields are not followed.
    """
    kw_only = _dataclass_kw_only(node)
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if _name_of(stmt.annotation) in {"ClassVar", "KW_ONLY"}:
            continue
        spec = _field_call(stmt.value)
        has_default, field_kw_only = stmt.value is not None, kw_only
        if spec is not None:
            init = _keyword(spec, "init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = _keyword(spec, "default") is not None or _keyword(spec, "default_factory") is not None
            flag = _keyword(spec, "kw_only")
            if isinstance(flag, ast.Constant):
                field_kw_only = bool(flag.value)
        name = stmt.target.id
        if has_default and qualname not in _PARAMETER_RECORDS:
            key = f"{qualname}:{name}"
            yield Knob(key, node.name, name, None if field_kw_only else position, True, "field")
        position += not field_kw_only


def _function_knobs(node: ast.AST, qualname: str, owner: Optional[ast.ClassDef]) -> Iterator[Knob]:
    name = node.name
    if name.startswith("__") and name.endswith("__") and name not in _CALLED_DUNDERS:
        return
    if owner and name in _STDLIB_HOOKS:
        return
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    skip = 1 if owner and "staticmethod" not in _decorator_names(node) else 0
    callee = owner.name if name == "__init__" else name
    kind = "method" if owner and name != "__init__" else "function"
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None and index >= skip:
            keyword = arg not in args.posonlyargs
            yield Knob(f"{qualname}:{arg.arg}", callee, arg.arg, index - skip, keyword, kind)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Knob(f"{qualname}:{arg.arg}", callee, arg.arg, None, True, kind)


def _walk_definitions(
    tree: ast.Module, module: str, dead: Set[str]
) -> Iterator[Tuple[str, ast.AST, Optional[ast.ClassDef]]]:
    """Each live function and class with its qualified name and the class whose body holds it."""
    stack: List[Tuple[ast.AST, str, Optional[ast.ClassDef]]] = [(tree, module, None)]
    while stack:
        node, prefix, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if qualname in dead:
                    continue
                yield qualname, child, owner
                stack.append((child, qualname, child if isinstance(child, ast.ClassDef) else None))
            else:
                stack.append((child, prefix, owner))


def collect_knobs(modules: Mapping[str, Tuple[str, bool]], dead: Set[str] = frozenset()) -> Dict[str, Knob]:
    """Every knob of the live definitions in ``modules``, by key."""
    knobs: Dict[str, Knob] = {}
    for module, (source, _) in modules.items():
        for qualname, node, owner in _walk_definitions(ast.parse(source), module, dead):
            if not isinstance(node, ast.ClassDef):
                found = _function_knobs(node, qualname, owner)
            elif _is_record(node) and not any(
                isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body
            ):
                found = _record_knobs(node, qualname)
            else:
                continue
            knobs.update((knob.key, knob) for knob in found)
    return knobs


def _callees(func: ast.expr, owner: Optional[ast.ClassDef]) -> List[Tuple[str, bool]]:
    """The names a call reaches its callee by, each with whether it is a bare name.

    ``cls(...)`` and ``type(self)(...)`` name the enclosing class, and
    ``super().__init__(...)`` its bases.
    """
    if isinstance(func, ast.Name):
        return [(owner.name if func.id == "cls" and owner else func.id, True)]
    if isinstance(func, ast.Attribute):
        inner = func.value
        if func.attr == "__init__" and owner and isinstance(inner, ast.Call) and _name_of(inner.func) == "super":
            return [(_name_of(base), True) for base in owner.bases]
        return [(func.attr, False)]
    if isinstance(func, ast.Call) and _name_of(func.func) == "type" and owner:
        return [(owner.name, True)]
    return []


def _reduce(callee: str, bare: bool, args: List[ast.expr], keywords: List[ast.keyword]) -> Call:
    star_at = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
    return Call(
        callee,
        bare,
        len(args) if star_at is None else star_at,
        star_at is not None,
        frozenset(k.arg for k in keywords if k.arg is not None),
        any(k.arg is None for k in keywords),
    )


def _calls_in(tree: ast.AST) -> Iterator[Call]:
    stack: List[Tuple[ast.AST, Optional[ast.ClassDef]]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        callees = _callees(node.func, owner)
        for callee, bare in callees:
            yield _reduce(callee, bare, node.args, node.keywords)
        names = {callee for callee, _ in callees}
        if names == {"partial"} and node.args:
            for callee, bare in _callees(node.args[0], owner):
                yield _reduce(callee, bare, node.args[1:], node.keywords)
        elif names == {"replace"} and node.args:
            target = node.args[0]
            if isinstance(target, ast.Name) and target.id == "self" and owner:
                yield _reduce(owner.name, True, [], node.keywords)
            else:
                kept = [k for k in node.keywords if k.arg is not None]
                yield _reduce(_REPLACE, True, [], kept)


def _live_tree(source: str, module: str, dead: Set[str]) -> ast.Module:
    """The module's syntax tree with the bodies of dead definitions dropped."""
    tree = ast.parse(source)
    for qualname, node, _ in list(_walk_definitions(tree, module, set())):
        if qualname in dead:
            node.body = [ast.Pass()]
            node.decorator_list = []
    return tree


def collect_calls(trees: Iterable[ast.AST]) -> List[Call]:
    calls: List[Call] = []
    for tree in trees:
        calls += _calls_in(tree)
    return calls


def is_set(knob: Knob, calls_by_name: Mapping[str, List[Call]]) -> bool:
    candidates = list(calls_by_name.get(knob.callee, []))
    if knob.kind == "field":
        candidates += [c for c in calls_by_name.get(_REPLACE, []) if knob.name in c.keywords]
    for call in candidates:
        if knob.kind == "method" and call.bare:
            continue
        if knob.keyword and (knob.name in call.keywords or call.double_star):
            return True
        if knob.position is not None and (knob.position < call.positional or call.star):
            return True
    return False


def unset_knobs(
    modules: Mapping[str, Tuple[str, bool]],
    external: Iterable[ast.AST] = (),
    dead: Set[str] = frozenset(),
    allowlist: Iterable[str] = (),
) -> List[str]:
    """Keys of the knobs no call in live ``modules`` or ``external`` sets, allowlist excepted."""
    knobs = collect_knobs(modules, dead)
    trees = [_live_tree(source, module, dead) for module, (source, _) in modules.items()]
    calls_by_name: Dict[str, List[Call]] = {}
    for call in collect_calls([*trees, *external]):
        calls_by_name.setdefault(call.callee, []).append(call)
    allowed = set(allowlist)
    return sorted(key for key, knob in knobs.items() if key not in allowed and not is_set(knob, calls_by_name))


def _external_trees() -> List[ast.Module]:
    """The caller code outside ``src/``: examples, perfbench and the docs' Python blocks."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for pattern in ("examples/*.py", "perfbench/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        trees += [ast.parse(block) for block in _PYTHON_BLOCK.findall(path.read_text(encoding="utf-8"))]
    return trees


@pytest.fixture(scope="module")
def repo_knob_inputs():
    modules = _source_modules()
    dead = set().union(*scan(modules, _external_words(), REACHABILITY_ALLOWLIST))
    return modules, _external_trees(), dead


class TestRepository:
    def test_every_knob_in_src_has_a_caller(self, repo_knob_inputs):
        modules, external, dead = repo_knob_inputs
        unset = unset_knobs(modules, external, dead, ALLOWLIST)
        assert unset == [], (
            "defaulted parameters or fields in src/ that no src/, example, perfbench or docs call sets; "
            f"make each a module constant, delete it with its branch, or allowlist it with reason (a) or (b): {unset}"
        )

    def test_every_allowlist_entry_names_reason_a_or_b(self):
        assert all(re.match(r"\((a|b)\) \S", reason) for reason in ALLOWLIST.values())

    def test_allowlist_entries_are_knobs(self, repo_knob_inputs):
        modules, _, dead = repo_knob_inputs
        assert sorted(set(ALLOWLIST) - set(collect_knobs(modules, dead))) == []

    def test_allowlist_entries_are_needed(self, repo_knob_inputs):
        modules, external, dead = repo_knob_inputs
        assert sorted(set(ALLOWLIST) - set(unset_knobs(modules, external, dead))) == []


def _unset(source: str, *callers: str, allowlist: Iterable[str] = ()) -> List[str]:
    return unset_knobs({"mod": (source, False)}, [ast.parse(c) for c in callers], allowlist=allowlist)


class TestScanner:
    def test_a_default_nothing_passes_is_flagged(self):
        assert _unset("def f(x, y=1):\n    return x + y\nf(2)\n") == ["mod.f:y"]

    def test_a_keyword_positional_or_expanded_argument_sets_it(self):
        source = (
            "def by_keyword(a=1):\n    pass\n"
            "def by_position(a, b=1):\n    pass\n"
            "def by_star(a, b=1):\n    pass\n"
            "def by_double_star(*, a=1):\n    pass\n"
            "by_keyword(a=2)\nby_position(1, 2)\nby_star(*args)\nby_double_star(**options)\n"
        )
        assert _unset(source) == []

    def test_a_method_skips_self_and_a_staticmethod_does_not(self):
        source = (
            "class Box:\n"
            "    def grow(self, by=1, limit=2):\n        pass\n"
            "    @staticmethod\n"
            "    def make(size=1, kind=2):\n        pass\n"
            "Box().grow(3)\nBox.make(3)\n"
        )
        assert _unset(source) == ["mod.Box.grow:limit", "mod.Box.make:kind"]

    def test_a_bare_name_call_does_not_set_a_method(self):
        source = "class Box:\n    def grow(self, by=1):\n        pass\ndef grow(by=1):\n    pass\ngrow(2)\n"
        assert _unset(source) == ["mod.Box.grow:by"]

    def test_constructor_calls_set_init_parameters(self):
        source = (
            "class Base:\n"
            "    def __init__(self, size=1, kind=2, tag=3):\n        pass\n"
            "class Child(Base):\n"
            "    def __init__(self):\n        super().__init__(kind=4)\n"
            "    @classmethod\n"
            "    def make(cls):\n        return cls()\n"
            "Base(5)\n"
        )
        assert _unset(source) == ["mod.Base.__init__:tag"]

    def test_dataclass_fields_are_knobs_unless_init_false(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Record:\n"
            "    name: str\n"
            "    size: int = 1\n"
            "    tags: list = field(default_factory=list)\n"
            "    cache: dict = field(default_factory=dict, init=False)\n"
            "    LIMIT: ClassVar[int] = 3\n"
            "Record('x', 2)\n"
        )
        assert _unset(source) == ["mod.Record:tags"]

    def test_replace_on_self_sets_the_enclosing_dataclass_fields(self):
        source = (
            "from dataclasses import dataclass, replace\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    size: int = 1\n"
            "    kind: int = 2\n"
            "    def resized(self):\n        return replace(self, size=2)\n"
            "Record().resized()\n"
        )
        assert _unset(source) == ["mod.Record:kind"]

    def test_partial_sets_what_it_binds(self):
        source = "import functools\ndef f(a=1, b=2):\n    pass\nfunctools.partial(f, b=3)()\n"
        assert _unset(source) == ["mod.f:a"]

    def test_an_external_caller_sets_it(self):
        source = "def f(a=1):\n    pass\n"
        assert _unset(source, "import mod\nmod.f(a=2)\n") == []

    def test_a_call_in_a_dead_definition_does_not_count(self):
        modules = {"mod": ("def f(a=1):\n    pass\ndef unused():\n    f(a=2)\nf()\n", False)}
        assert unset_knobs(modules, dead={"mod.unused"}) == ["mod.f:a"]

    def test_parameter_records_and_stdlib_signatures_are_exempt(self):
        modules = {
            "repro.config": (
                "from dataclasses import dataclass\n"
                "@dataclass\nclass PaperConfig:\n    loss: float = 1.0\n"
                "class Handler:\n"
                "    def log_message(self, format, *args, level=0):\n        pass\n"
                "    def __exit__(self, kind=None, value=None, tb=None):\n        pass\n",
                False,
            )
        }
        assert unset_knobs(modules) == []

    def test_an_allowlisted_knob_is_not_flagged(self):
        assert _unset("def f(a=1):\n    pass\n", allowlist=["mod.f:a"]) == []
