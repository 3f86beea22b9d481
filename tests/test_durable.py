"""Damage to every durable record kind ends in a quarantine, never a misread.

One damage generator — truncation at any byte, a single bit flip, appended
junk, a whitespace-only file and a zero-byte file — runs against each of
the four kinds of file :mod:`repro.durable` keeps: the orchestrator's
checkpoint, the design-point cache, a result document and a job record.
For every kind:

* the loader never returns a record that differs from one that was written;
* a damaged file is quarantined to ``*.corrupt``, holding the damaged
  bytes, unless the damage left a file the format must accept as written
  (see :func:`_indistinguishable`);
* loading twice gives the same result and quarantines nothing more;
* the next write produces a clean file that loads back completely.

Random flips rarely hit the few bits JSON cannot see (``1e-12`` and
``1E-12`` parse to the same float, a ``\\u00e9`` escape to the same
character whatever the case of its hex digits), so a second test flips
every one of them.

A guard test keeps the format in one module: only ``repro/durable.py``
calls ``os.replace`` or ``tempfile.mkstemp``.
"""

from __future__ import annotations

import ast
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coding.registry import get_code
from repro.config import DEFAULT_CONFIG
from repro.experiments.orchestrator import (
    ExperimentGrid,
    _load_checkpoint,
    _write_checkpoint,
    checkpoint_path,
)
from repro.link.design import OpticalLinkDesigner
from repro.service.models import Job
from repro.service.queue import DurableJobQueue
from repro.service.store import PersistentDesignCache, ResultsStore

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


class TestOneWriter:
    def test_only_durable_replaces_files(self):
        guarded = {("os", "replace"), ("tempfile", "mkstemp")}
        offenders = []
        for directory, _, names in os.walk(SRC):
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                if os.path.relpath(path, SRC) == "durable.py":
                    continue
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and (node.value.id, node.attr) in guarded
                    ) or (
                        isinstance(node, ast.ImportFrom)
                        and any((node.module, alias.name) in guarded for alias in node.names)
                    ):
                        offenders.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
        assert offenders == [], "use repro.durable instead: " + ", ".join(offenders)


# --------------------------------------------------------------- record kinds
@dataclass(frozen=True)
class Kind:
    """One durable record kind: where its file lives, how to write and load it.

    ``write(root)`` writes every record of ``written`` through the kind's
    own writer; ``load(root)`` returns what the kind's loader hands back,
    as a ``{key: record}`` dict comparable with ``written``.
    """

    name: str
    path: Callable[[str], str]
    written: Dict[Any, Any]
    write: Callable[[str], None]
    load: Callable[[str], Dict[Any, Any]]


GRID = ExperimentGrid(
    experiment="durable-check",
    shard_params=tuple({"shard": index} for index in range(4)),
    options={"seed": 3},
    config=DEFAULT_CONFIG,
)
SHARDS = {
    0: {"rows": [[1.5e-12, -2.0, 3]], "text": "a"},
    1: {"rows": [], "text": "bé"},
    3: {"rows": [[0.25, 1e300]], "text": "c", "flag": True, "none": None},
}


def _checkpoint() -> Kind:
    return Kind(
        name="checkpoint",
        path=lambda root: checkpoint_path(root, GRID.experiment),
        written=SHARDS,
        write=lambda root: _write_checkpoint(root, GRID, dict(SHARDS)),
        load=lambda root: _load_checkpoint(root, GRID),
    )


def _design_cache() -> Kind:
    designer = OpticalLinkDesigner()
    points = {}
    for name, target in (("h(7,4)", 1e-12), ("secded(72,64)", 1e-9), ("h(71,64)", 1e-11)):
        code = get_code(name)
        points[(code.name, code.n, code.k, target)] = designer.design_point(code, target)

    def path(root):
        return os.path.join(root, "design-cache.jsonl")

    def write(root):
        cache = PersistentDesignCache(path(root))
        for key in sorted(points):
            cache.store(key, points[key])

    def load(root):
        cache = PersistentDesignCache(path(root))
        loaded = {key: cache.load(key) for key in points}
        loaded = {key: point for key, point in loaded.items() if point is not None}
        assert len(cache) == len(loaded), "the cache holds a key nobody wrote"
        return loaded

    return Kind("design-cache", path, points, write, load)


FINGERPRINT = "0123456789abcdef" * 4
RESULT = {"text": "report 1.5e-12", "rows": [{"ber": 1e-12, "code": "H(7,4)", "ok": True}]}


def _result() -> Kind:
    return Kind(
        name="result",
        path=lambda root: ResultsStore(root).path(FINGERPRINT),
        written={FINGERPRINT: RESULT},
        write=lambda root: ResultsStore(root).put(FINGERPRINT, RESULT),
        load=lambda root: {
            key: payload
            for key, payload in [(FINGERPRINT, ResultsStore(root).get(FINGERPRINT))]
            if payload is not None
        },
    )


JOB = Job(
    job_id="feedc0de" * 2,
    experiment="figure5",
    options={"bers": [1e-12, 1e-9]},
    created_s=1700000000.125,
    updated_s=1700000000.5,
)


def _job() -> Kind:
    return Kind(
        name="job",
        path=lambda root: os.path.join(root, f"{JOB.job_id}.json"),
        written={JOB.job_id: JOB},
        write=lambda root: DurableJobQueue(root).submit(JOB),
        load=lambda root: {job.job_id: job for job in DurableJobQueue(root).jobs()},
    )


KINDS = {kind.name: kind for kind in (_checkpoint(), _design_cache(), _result(), _job())}


# ------------------------------------------------------------------- damage
@st.composite
def damages(draw, clean: bytes):
    """``(label, position, damaged bytes)`` for one damage to ``clean``."""
    label = draw(st.sampled_from(["truncate", "flip", "append", "blank", "zero-byte"]))
    if label == "truncate":
        cut = draw(st.integers(0, len(clean) - 1))
        return label, cut, clean[:cut]
    if label == "flip":
        index = draw(st.integers(0, len(clean) - 1))
        bit = draw(st.integers(0, 7))
        return label, index, clean[:index] + bytes([clean[index] ^ (1 << bit)]) + clean[index + 1:]
    if label == "append":
        return label, len(clean), clean + draw(st.binary(min_size=1, max_size=24))
    if label == "blank":
        return label, 0, draw(st.sampled_from([b"\n", b"  \n", b"\r\n", b"\n\n", b"\t"]))
    return label, 0, b""


def _indistinguishable(kind: Kind, label: str, position: int, damaged: bytes) -> bool:
    """Damage that leaves a file the format must accept as written.

    * A cut at a line end leaves whole records: the shorter file a cache
      or checkpoint was before its last records landed.
    * The checkpoint header carries no checksum, so a flip inside its
      fingerprint reads as another grid's checkpoint: stale, so ignored
      (the sweep recomputes), neither resumed nor quarantined.
    """
    if label == "truncate":
        return damaged.endswith(b"\n")
    if kind.name != "checkpoint" or label != "flip":
        return False
    start = damaged.index(b'"fingerprint": "') + len(b'"fingerprint": "')
    return start <= position < start + len(GRID.fingerprint)


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_damage_is_quarantined_never_misread(name, data):
    kind = KINDS[name]
    with tempfile.TemporaryDirectory() as root:
        path = kind.path(root)
        kind.write(root)
        with open(path, "rb") as handle:
            clean = handle.read()
        assert kind.load(root) == kind.written  # the clean file loads completely

        label, position, damaged = data.draw(damages(clean), label="damage")
        with open(path, "wb") as handle:
            handle.write(damaged)

        loaded = kind.load(root)
        for key, record in loaded.items():
            assert record == kind.written[key], f"{name} loaded a record nobody wrote"

        quarantined = path + ".corrupt"
        if not os.path.exists(quarantined):
            assert _indistinguishable(kind, label, position, damaged), f"{label} went unnoticed"

        assert kind.load(root) == loaded  # loading twice gives the same records
        if os.path.exists(quarantined):
            # The damaged bytes, so the second load quarantined nothing more.
            with open(quarantined, "rb") as handle:
                assert handle.read() == damaged
            os.unlink(quarantined)

        kind.write(root)
        assert kind.load(root) == kind.written
        assert not os.path.exists(quarantined), "the next write left a damaged file"


def _values(data: bytes) -> list | None:
    try:
        return [json.loads(line) for line in data.decode("ascii").splitlines()]
    except ValueError:
        return None


@pytest.mark.parametrize("name", sorted(KINDS))
def test_flips_json_cannot_see_are_quarantined(name):
    kind = KINDS[name]
    with tempfile.TemporaryDirectory() as root:
        path = kind.path(root)
        kind.write(root)
        with open(path, "rb") as handle:
            clean = handle.read()
        case_flips = [
            clean[:index] + bytes([clean[index] ^ 0x20]) + clean[index + 1:]
            for index in range(len(clean))
            if chr(clean[index]).isalpha()
        ]
        invisible = [damaged for damaged in case_flips if _values(damaged) == _values(clean)]
        assert invisible, f"the {name} fixture has no value-preserving flip to test"
        for damaged in invisible:
            with open(path, "wb") as handle:
                handle.write(damaged)
            for key, record in kind.load(root).items():
                assert record == kind.written[key]
            assert os.path.exists(path + ".corrupt")
            os.unlink(path + ".corrupt")
            kind.write(root)
