"""Unit tests of span tracing: JSONL emission, activation, no-op path."""

from __future__ import annotations

import io
import json
import os
import time

from repro.obs import tracing as obs_tracing
from repro.obs.tracing import Tracer


def _records(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestEmission:
    def test_span_emits_one_json_line(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("work", shard=3):
            pass
        (record,) = _records(sink)
        assert record["kind"] == "span"
        assert record["name"] == "work"
        assert record["pid"] == os.getpid()
        assert record["attrs"] == {"shard": 3}
        assert record["duration_s"] >= 0.0

    def test_emit_formats_every_attr_shape(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        tracer.emit("bare", 0.25)
        tracer.emit("one-int", 0.25, {"attempts": 17})  # fast path
        tracer.emit("one-str", 0.25, {"code": "H(71,64)"})
        tracer.emit("many", 0.25, {"a": 1, "b": 2.5})
        bare, one_int, one_str, many = _records(sink)
        assert "attrs" not in bare
        assert one_int["attrs"] == {"attempts": 17}
        assert one_str["attrs"] == {"code": "H(71,64)"}
        assert many["attrs"] == {"a": 1, "b": 2.5}

    def test_start_offsets_are_monotonic_from_tracer_origin(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        tracer.emit("first", 0.0)
        time.sleep(0.002)
        tracer.emit("second", 0.0)
        first, second = _records(sink)
        assert 0.0 <= first["start_s"] < second["start_s"]

    def test_failed_span_records_the_error_kind(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        try:
            with tracer.span("explode"):
                raise ValueError("boom")
        except ValueError:
            pass
        (record,) = _records(sink)
        assert record["attrs"]["error"] == "ValueError"


class TestActivation:
    def test_disabled_by_default(self):
        assert obs_tracing.ACTIVE is None

    def test_enable_tracing_keeps_a_caller_owned_stream_open(self):
        sink = io.StringIO()
        tracer = obs_tracing.enable_tracing(sink)
        try:
            assert obs_tracing.ACTIVE is tracer
            tracer.emit("inside", 0.0)
        finally:
            obs_tracing.disable_tracing()
        assert obs_tracing.ACTIVE is None
        assert not sink.closed  # caller-owned streams are never closed
        assert _records(sink)[0]["name"] == "inside"

    def test_enable_tracing_owns_path_handles(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = obs_tracing.enable_tracing(path)
        try:
            tracer.emit("spanned", 0.125, {"attempts": 2})
        finally:
            obs_tracing.disable_tracing()
        with open(path, encoding="utf-8") as handle:
            (record,) = [json.loads(line) for line in handle]
        assert record["name"] == "spanned"
        assert obs_tracing.ACTIVE is None
