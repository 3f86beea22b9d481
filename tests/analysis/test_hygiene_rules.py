"""Fixture suite for the RPR3xx hot-path / API hygiene rules."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source

#: Inside the configured hot modules (RPR301 applies).
HOT_PATH = "repro/netsim/events.py"
#: Anywhere else (RPR301 must stay silent).
COLD_PATH = "repro/manager/fixture.py"


def codes(source: str, path: str = COLD_PATH) -> list:
    return [finding.code for finding in lint_source(textwrap.dedent(source), path=path)]


class TestSlotsRequired:
    def test_plain_class_in_hot_module_is_flagged(self):
        source = """
        class Event:
            def __init__(self, t):
                self.t = t
        """
        assert codes(source, path=HOT_PATH) == ["RPR301"]

    def test_slots_class_is_fine(self):
        source = """
        class Event:
            __slots__ = ("t",)
            def __init__(self, t):
                self.t = t
        """
        assert codes(source, path=HOT_PATH) == []

    def test_dataclass_with_slots_is_fine(self):
        source = """
        from dataclasses import dataclass
        @dataclass(frozen=True, slots=True)
        class Event:
            t: float
        """
        assert codes(source, path=HOT_PATH) == []

    def test_dataclass_without_slots_is_flagged(self):
        source = """
        from dataclasses import dataclass
        @dataclass
        class Event:
            t: float
        """
        assert codes(source, path=HOT_PATH) == ["RPR301"]

    def test_enum_namedtuple_exception_are_exempt(self):
        source = """
        from enum import IntEnum
        from typing import NamedTuple
        class Kind(IntEnum):
            A = 0
        class Record(NamedTuple):
            t: float
        class SimError(ValueError):
            pass
        """
        assert codes(source, path=HOT_PATH) == []

    def test_cold_modules_are_not_checked(self):
        source = """
        class Anything:
            pass
        """
        assert codes(source, path=COLD_PATH) == []


class TestMutableDefaults:
    def test_list_default_is_flagged(self):
        assert codes("def f(x=[]):\n    return x\n") == ["RPR302"]

    def test_dict_call_default_is_flagged(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["RPR302"]

    def test_kwonly_set_default_is_flagged(self):
        assert codes("def f(*, x={1}):\n    return x\n") == ["RPR302"]

    def test_none_default_is_fine(self):
        assert codes("def f(x=None):\n    return x or []\n") == []

    def test_tuple_and_frozen_constants_are_fine(self):
        assert codes("def f(x=(), y=0, z='a'):\n    return x, y, z\n") == []


class TestSilentExcept:
    def test_bare_except_is_flagged(self):
        source = """
        try:
            work()
        except:
            handle()
        """
        assert codes(source) == ["RPR303"]

    def test_except_exception_pass_is_flagged(self):
        source = """
        try:
            work()
        except Exception:
            pass
        """
        assert codes(source) == ["RPR303"]

    def test_narrow_pass_is_fine(self):
        # Narrow types with an intentional pass are a legitimate idiom
        # (e.g. "already dead" races around process termination).
        source = """
        try:
            work()
        except (OSError, ValueError):
            pass
        """
        assert codes(source) == []

    def test_broad_handler_that_logs_is_fine(self):
        source = """
        try:
            work()
        except Exception:
            logger.exception("work failed")
        """
        assert codes(source) == []


class TestAllDrift:
    def test_export_of_missing_name_is_flagged(self):
        source = """
        __all__ = ["gone"]
        def present():
            return 1
        """
        assert codes(source) == ["RPR304", "RPR304"]  # missing export + drift

    def test_public_def_missing_from_all_is_flagged(self):
        source = """
        __all__ = ["a"]
        def a():
            return 1
        def b():
            return 2
        """
        assert codes(source) == ["RPR304"]

    def test_consistent_module_is_fine(self):
        source = """
        __all__ = ["a", "B"]
        def a():
            return 1
        class B:
            pass
        def _private():
            return 3
        """
        assert codes(source) == []

    def test_reexports_count_as_defined(self):
        source = """
        from os.path import join
        __all__ = ["join"]
        """
        assert codes(source) == []

    def test_module_without_all_is_skipped(self):
        assert codes("def anything():\n    return 1\n") == []

    def test_computed_all_is_skipped(self):
        source = """
        __all__ = ["a"]
        __all__ += ["b"]
        def a():
            return 1
        """
        assert codes(source) == []

    def test_lazy_export_table_with_getattr_defines_its_names(self):
        source = """
        import importlib

        _LAZY_EXPORTS = {"Widget": ".parts"}


        def __getattr__(name):
            return getattr(importlib.import_module(_LAZY_EXPORTS[name], __name__), name)


        __all__ = ["Widget"]
        """
        assert codes(source) == []

    def test_lazy_export_table_without_getattr_defines_nothing(self):
        source = """
        _LAZY_EXPORTS = {"Widget": ".parts"}
        __all__ = ["Widget"]
        """
        assert codes(source) == ["RPR304"]
