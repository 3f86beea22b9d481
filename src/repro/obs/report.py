"""Human-readable rendering of a run manifest (``obs-report``).

Turns the JSON provenance record of :mod:`repro.obs.manifest` into the
text report behind ``repro-experiments obs-report``: identity, environment
and timing up top, then the merged counters/gauges, histogram sketches and
a per-shard one-liner table.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["render_run_report"]


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value):,}"


#: Length of the longest bar of a histogram sketch (characters).
_SKETCH_WIDTH = 24


def _histogram_sketch(state: dict) -> Iterable[str]:
    """One line per non-empty bucket with a proportional bar."""
    bounds = state["bounds"]
    counts = state["counts"]
    total = max(state["count"], 1)
    labels = [f"<= {edge:g}" for edge in bounds] + [f"> {bounds[-1]:g}"]
    peak = max(counts) or 1
    for label, count in zip(labels, counts):
        if count == 0:
            continue
        bar = "#" * max(1, round(_SKETCH_WIDTH * count / peak))
        yield f"    {label:>12}  {count:>10,}  ({count / total:6.1%}) {bar}"


def render_run_report(manifest: dict) -> str:
    """Render one manifest into the ``obs-report`` text block."""
    lines: list[str] = []
    title = f"Run report — experiment {manifest.get('experiment', '?')!r}"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(f"fingerprint     : {manifest.get('fingerprint', '?')}")
    num_shards = manifest.get("num_shards", 0)
    resumed = manifest.get("resumed_shards", [])
    shard_note = f"{num_shards}" + (f" ({len(resumed)} resumed from checkpoint)" if resumed else "")
    lines.append(f"shards          : {shard_note}")
    invocation = manifest.get("invocation", {})
    if invocation:
        pairs = ", ".join(f"{key}={value}" for key, value in sorted(invocation.items()))
        lines.append(f"invocation      : {pairs}")
    environment = manifest.get("environment", {})
    if environment:
        lines.append(
            "environment     : "
            f"repro {environment.get('package_version', '?')}, "
            f"python {environment.get('python', '?')}, "
            f"numpy {environment.get('numpy', '?')}, "
            f"{environment.get('platform', '?')}"
        )
    timing = manifest.get("timing", {})
    if timing:
        wall = timing.get("wall_s")
        cpu = timing.get("cpu_s")
        parts = []
        if wall is not None:
            parts.append(f"wall {wall:.3f}s")
        if cpu is not None:
            parts.append(f"cpu {cpu:.3f}s")
        if parts:
            lines.append(f"timing          : {', '.join(parts)}")
    orchestrator = manifest.get("orchestrator", {})
    if orchestrator:
        pairs = ", ".join(
            f"{key}={_format_value(value)}" for key, value in sorted(orchestrator.items())
        )
        lines.append(f"orchestrator    : {pairs}")

    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters or gauges:
        lines.append("")
        lines.append("Merged metrics (exact across shards)")
        lines.append("-" * 36)
        width = max((len(name) for name in (*counters, *gauges)), default=0)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:>14,}")
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:>14.6g}")
    for name in sorted(histograms):
        state = histograms[name]
        lines.append("")
        lines.append(f"Histogram {name} ({state['count']:,} observations)")
        lines.extend(_histogram_sketch(state))

    shards = manifest.get("shards", [])
    observed = [shard for shard in shards if shard.get("metrics")]
    if observed:
        lines.append("")
        lines.append("Per-shard snapshot")
        lines.append("-" * 18)
        for shard in shards:
            snapshot = shard.get("metrics")
            if snapshot is None:
                lines.append(f"  shard {shard['index']:>3}: (resumed from checkpoint)")
                continue
            shard_counters = snapshot.get("counters", {})
            events = shard_counters.get("netsim.events.total")
            summary = (
                f"{events:,} events" if events is not None
                else f"{sum(shard_counters.values()):,} counts"
            )
            lines.append(f"  shard {shard['index']:>3}: {summary}")
    return "\n".join(lines)
