"""In-memory span recorder and the layer patch table of the traced run.

The traced run wraps the public entry point of each layer from outside
the package.  A wrapper opens a span, calls the original and closes the
span; closing folds the span into per-name totals (count, wall time and
self time, i.e. the span's duration minus the time its child spans
cover), so memory stays constant however many spans a run opens.  Spans
nest per thread: the service answers requests on handler threads.

Names are patched where the caller looks them up.  ``from x import f``
binds ``f`` in the importing module at import time, so a wrapper placed
only on the defining module records nothing; the table below patches
``repro.link.design.required_raw_ber``, not
``repro.channel.ber.required_raw_ber``.  Methods are patched on their
class, where every caller finds them.
"""

from __future__ import annotations

import functools
import importlib
import re
import threading
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "Patches", "install_layer_patches", "layer_metrics"]


class SpanRecorder:
    """Per-name span totals plus free-form counters, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [spans closed, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> list:
        """Push a span frame ``[start, child seconds]`` on this thread."""
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def close(self, name: str, frame: list) -> float:
        """Pop ``frame`` and charge it to ``name``; returns its duration."""
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name, function, *, after=None):
        """Wrap ``function`` in a span.

        ``name`` is a string or a callable of the call's arguments (for
        spans named after a route or an experiment).  ``after(result,
        args, kwargs)`` runs inside the span to update counters.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = self.open()
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                self.close(label, frame)

        return wrapper

    def wrap_generator(self, name: str, function, *, counter: str):
        """Wrap a generator function: each ``next`` is one span."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                frame = self.open()
                try:
                    item = next(iterator)
                except StopIteration:
                    self.close(name, frame)
                    return
                except BaseException:
                    self.close(name, frame)
                    raise
                self.close(name, frame)
                self.count(counter)
                yield item

        return wrapper

    def dump(self) -> dict:
        """JSON-friendly snapshot: ``{"spans": {...}, "counters": {...}}``."""
        with self._lock:
            return {
                "spans": {
                    name: {"count": count, "total_s": total, "self_s": own}
                    for name, (count, total, own) in self.totals.items()
                },
                "counters": dict(self.counters),
            }


class Patches:
    """Attribute replacements that can be installed and rolled back."""

    _INHERITED = object()

    def __init__(self):
        self._entries = []  # (owner, attribute, value to restore, replacement)

    def add(self, owner, attribute: str, replacement_factory) -> None:
        # A class may inherit the method; uninstalling then deletes the
        # override instead of copying the base's function onto it.
        restore = vars(owner).get(attribute, self._INHERITED)
        replacement = replacement_factory(getattr(owner, attribute))
        self._entries.append((owner, attribute, restore, replacement))

    def install(self) -> None:
        for owner, attribute, _restore, replacement in self._entries:
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, restore, _replacement in reversed(self._entries):
            if restore is self._INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, restore)


#: ``(method, path regex, route label)`` of the service routes the client uses.
_ROUTE_LABELS = (
    ("GET", re.compile(r"^/design$"), "design"),
    ("GET", re.compile(r"^/readyz$"), "readyz"),
    ("POST", re.compile(r"^/jobs$"), "jobs_submit"),
    ("GET", re.compile(r"^/jobs/[0-9a-f]+$"), "job_get"),
    ("GET", re.compile(r"^/jobs/[0-9a-f]+/result$"), "job_result"),
)
ROUTES = tuple(label for _method, _pattern, label in _ROUTE_LABELS)


def _route_label(context, method, path, query, body) -> str:
    for route_method, pattern, label in _ROUTE_LABELS:
        if route_method == method and pattern.match(path):
            return f"service.dispatch.{label}"
    return "service.dispatch.other"


def install_layer_patches(recorder: SpanRecorder) -> Patches:
    """Build (and install) the wrappers of every traced layer boundary."""
    crosstalk = importlib.import_module("repro.photonics.crosstalk")
    design = importlib.import_module("repro.link.design")
    manager = importlib.import_module("repro.manager.manager")
    generators = importlib.import_module("repro.traffic.generators")
    engine = importlib.import_module("repro.netsim.engine")
    outcomes = importlib.import_module("repro.netsim.outcomes")
    montecarlo = importlib.import_module("repro.coding.montecarlo")
    crc = importlib.import_module("repro.coding.crc")
    runner = importlib.import_module("repro.experiments.runner")
    server = importlib.import_module("repro.service.server")
    store = importlib.import_module("repro.service.store")

    patches = Patches()

    def span(name, after=None):
        return lambda original: recorder.wrap(name, original, after=after)

    def design_point(original):
        def wrapper(self, code, target_ber):
            if self.cached_point(code, target_ber) is None:
                recorder.count("link.design_point.misses")
            frame = recorder.open()
            try:
                return original(self, code, target_ber)
            finally:
                recorder.close("link.design_point", frame)

        return functools.wraps(original)(wrapper)

    def count_events(result, args, kwargs):
        recorder.count("netsim.run.events", result.events_processed)

    def count_failures(result, args, kwargs):
        recorder.count("coding.decode.failures", result.num_failures)

    patches.add(crosstalk.CrosstalkModel, "worst_case_ratio", span("photonics.worst_case_ratio"))
    patches.add(design.OpticalLinkDesigner, "design_point", design_point)
    patches.add(design, "required_raw_ber", span("channel.required_raw_ber"))
    patches.add(design, "required_snr", span("channel.required_snr"))
    patches.add(manager.OpticalLinkManager, "configure", span("manager.configure"))
    for cls in (
        generators.UniformTrafficGenerator,
        generators.HotspotTrafficGenerator,
        generators.BurstyTrafficGenerator,
    ):
        patches.add(
            cls,
            "generate",
            lambda original: recorder.wrap_generator(
                "traffic.generate", original, counter="traffic.generate.requests"
            ),
        )
    patches.add(engine.NetworkSimulator, "run", span("netsim.run", count_events))
    for module in (montecarlo, outcomes):
        patches.add(module, "encode_blocks_packed", span("coding.encode"))
        patches.add(module, "decode_blocks_packed", span("coding.decode", count_failures))
    patches.add(crc.CyclicRedundancyCheck, "checksum_batch_bits", span("coding.crc"))
    patches.add(crc.CyclicRedundancyCheck, "verify_batch", span("coding.crc"))
    patches.add(
        runner,
        "run_experiment",
        span(lambda name, *args, **kwargs: f"experiments.{name}"),
    )
    patches.add(server, "dispatch", span(_route_label))
    patches.add(store.PersistentDesignCache, "load", span("service.design_cache.load"))
    patches.add(store.PersistentDesignCache, "store", span("service.design_cache.store"))
    patches.install()
    return patches


def _self(spans: dict, name: str) -> float:
    return spans.get(name, {}).get("self_s", 0.0)


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, {}).get("count", 0)


def layer_metrics(dump: dict, experiments: "list[str]") -> dict:
    """Roll a :meth:`SpanRecorder.dump` up into the per-layer metric names.

    Every layer appears, with 0 where the workload never reached it.
    """
    spans = dump.get("spans", {})
    counters = dump.get("counters", {})
    calls = _calls(spans, "link.design_point")
    misses = counters.get("link.design_point.misses", 0)
    metrics = {
        "photonics.worst_case_ratio.calls": _calls(spans, "photonics.worst_case_ratio"),
        "photonics.worst_case_ratio.self_s": _self(spans, "photonics.worst_case_ratio"),
        "link.design_point.calls": calls,
        "link.design_point.misses": misses,
        "link.design_point.hit_ratio": (calls - misses) / calls if calls else 0.0,
        "link.design_point.self_s": _self(spans, "link.design_point"),
        "channel.required_raw_ber.self_s": _self(spans, "channel.required_raw_ber"),
        "channel.required_snr.self_s": _self(spans, "channel.required_snr"),
        "manager.configure.calls": _calls(spans, "manager.configure"),
        "manager.configure.self_s": _self(spans, "manager.configure"),
        "traffic.generate.requests": counters.get("traffic.generate.requests", 0),
        "traffic.generate.self_s": _self(spans, "traffic.generate"),
        "netsim.run.events": counters.get("netsim.run.events", 0),
        "netsim.run.self_s": _self(spans, "netsim.run"),
        "coding.encode.self_s": _self(spans, "coding.encode"),
        "coding.decode.self_s": _self(spans, "coding.decode"),
        "coding.crc.self_s": _self(spans, "coding.crc"),
        "coding.decode.failures": counters.get("coding.decode.failures", 0),
        "service.design_cache.load.self_s": _self(spans, "service.design_cache.load"),
        "service.design_cache.store.self_s": _self(spans, "service.design_cache.store"),
    }
    for route in ROUTES:
        metrics[f"service.dispatch.{route}.self_s"] = _self(spans, f"service.dispatch.{route}")
    orchestrator = 0.0
    for name in experiments:
        entry = spans.get(f"experiments.{name}", {})
        metrics[f"experiments.{name}.s"] = entry.get("total_s", 0.0)
        orchestrator += entry.get("self_s", 0.0)
    metrics["experiments.orchestrator.self_s"] = orchestrator
    return metrics
