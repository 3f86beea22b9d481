"""Process-local metrics registry: counters, gauges, histograms.

Design constraints, in priority order:

1. **Zero perturbation.**  Nothing here touches a random generator or a
   simulation observable.  Instrumented code publishes *after* computing
   its results (or increments plain integers), so a run with metrics on is
   byte-identical to one with metrics off.
2. **Exact mergeability.**  Counters are exact Python integers and
   histogram buckets are exact integer counts, so merging per-shard
   snapshots (sums for counters, bucket-wise sums for histograms) gives
   *the same numbers* as a serial run — not approximately, byte for byte
   once serialized.  This is what makes ``--jobs N`` telemetry trustworthy.
3. **Near-zero disabled overhead.**  The hot paths guard on the
   module-level :data:`ACTIVE` registry being ``None`` (one attribute read
   and an identity check); most publication happens once per run from
   already-maintained aggregates, never per event.  Aggregation that must
   scan a large result table is *deferred*: the run parks a closure via
   :meth:`MetricsRegistry.defer` and the scan happens at snapshot time,
   outside the simulation's critical path.

Gauges hold the last value set (floats allowed); merging keeps the last
shard's value in shard order, which is deterministic because shards are
merged in grid order regardless of completion order.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Sequence

from ..exceptions import ConfigurationError

__all__ = [
    "ACTIVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "merge_snapshots",
]

#: The active registry instrumented code publishes into, or ``None`` when
#: metrics are disabled (the default).  Read it as ``metrics.ACTIVE`` —
#: hot paths must not cache it across enable/disable boundaries.
ACTIVE: "MetricsRegistry | None" = None


class Counter:
    """A monotonically increasing exact integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease")
        self.value += int(amount)


class Gauge:
    """A point-in-time value (float or int); holds the last value set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)


#: Default histogram buckets: half-open latency decades in seconds,
#: ``(-inf, 1e-9], (1e-9, 1e-8], ..., (1e-1, 1], (1, inf)``.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(10.0**e for e in range(-9, 1))


class Histogram:
    """Fixed-bound bucket histogram with exact integer counts.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last edge.
    No float sum is kept — float accumulation order would make merged
    snapshots depend on shard scheduling, which would break the exact
    serial-equals-parallel merge guarantee.
    """

    __slots__ = ("name", "bounds", "counts", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        edges = [float(edge) for edge in bounds]
        if not edges or sorted(edges) != edges or len(set(edges)) != len(edges):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing bucket bounds"
            )
        self.name = name
        self.bounds = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        bounds = self.bounds
        counts = self.counts
        n = 0
        for value in values:
            index = bisect_right(bounds, value)
            # bisect_right puts an exact edge hit one past its bucket;
            # pull it back so edges are inclusive upper bounds.
            if index and bounds[index - 1] == value:
                index -= 1
            counts[index] += 1
            n += 1
        self.count += n

    def observe_counts(self, counts: Sequence[int]) -> None:
        """Add pre-bucketed observation counts in one shot.

        ``counts`` must align with this histogram's buckets —
        ``len(bounds) + 1`` entries with the overflow bucket last.  Callers
        that bucket large batches vectorially (e.g. the netsim engines via
        ``numpy.searchsorted``) publish through this instead of paying a
        per-value Python loop; the addition stays exact-integer, so merge
        semantics are unchanged.
        """
        if len(counts) != len(self.counts):
            raise ConfigurationError(
                f"histogram {self.name!r} expected {len(self.counts)} bucket "
                f"counts, got {len(counts)}"
            )
        total = 0
        own = self.counts
        for index, value in enumerate(counts):
            value = int(value)
            if value < 0:
                raise ConfigurationError(
                    f"histogram {self.name!r} bucket counts must be >= 0"
                )
            own[index] += value
            total += value
        self.count += total


class MetricsRegistry:
    """Named counters/gauges/histograms with deterministic JSON snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._deferred: List[Callable[["MetricsRegistry"], None]] = []

    # ------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif tuple(float(edge) for edge in bounds) != instrument.bounds:
            raise ConfigurationError(
                f"histogram {name!r} already registered with different bounds"
            )
        return instrument

    def inc(self, name: str, amount: int = 1) -> None:
        """Get-or-create convenience for one-shot counter increments."""
        self.counter(name).inc(amount)

    # -------------------------------------------------------- deferred publish
    def defer(self, publish: Callable[["MetricsRegistry"], None]) -> None:
        """Queue a publication callback to run at the next snapshot.

        This moves table-scan aggregation off an instrumented hot path: the
        caller parks a closure over its finished, immutable data (e.g. the
        netsim engines defer their per-record sums over thousands of
        transfer records) and the scan runs at scrape time instead of
        inside the timed simulation.  Callbacks run FIFO, so deferred
        publication produces the same deterministic totals as eager
        publication would.
        """
        self._deferred.append(publish)

    def flush_deferred(self) -> None:
        """Run queued publication callbacks (a callback may defer more)."""
        while self._deferred:
            pending, self._deferred = self._deferred, []
            for publish in pending:
                publish(self)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """Plain-JSON state, keys sorted — deterministic for identical runs."""
        self.flush_deferred()
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "bounds": list(self._histograms[name].bounds),
                    "counts": list(self._histograms[name].counts),
                    "count": self._histograms[name].count,
                }
                for name in sorted(self._histograms)
            },
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-shard snapshots exactly, in the order given.

    Counters sum (exact integers), histograms sum bucket-wise (their bounds
    must agree), gauges keep the last shard's value.  Merging the shard
    snapshots of a ``--jobs N`` sweep in grid order therefore reproduces
    the serial run's telemetry byte for byte.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = value
        for name, state in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(state["bounds"]),
                    "counts": list(state["counts"]),
                    "count": int(state["count"]),
                }
                continue
            if merged["bounds"] != list(state["bounds"]):
                raise ConfigurationError(
                    f"histogram {name!r} bucket bounds differ across shards"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], state["counts"])
            ]
            merged["count"] += int(state["count"])
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


# ------------------------------------------------------------------ activation
@contextlib.contextmanager
def collecting():
    """Scope a fresh registry's activation; restores the previous one on exit."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = MetricsRegistry()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
