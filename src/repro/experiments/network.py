"""Experiment ``network``: latency-vs-injection-rate load sweep of the ring.

The paper's headline claim (ECC/laser management saving ~22 W across the
whole interconnect) is a network-level statement, but the figure
experiments evaluate single links.  This experiment drives the
discrete-event engine of :mod:`repro.netsim` over a grid of traffic
pattern x injection rate x manager policy and reports, per grid point, the
latency distribution (with warm-up trimming), offered vs delivered
throughput, channel utilisation, energy per delivered bit and the ARQ
retransmission accounting.

Injection rate is expressed as a *relative load*: the network-wide request
rate is chosen so the offered payload bit rate equals ``load`` times the
aggregate serialisation bandwidth of the ring (``num_onis`` channels of
``NW x Fmod``).  Uniform traffic spreads that load evenly; hotspot traffic
saturates the hot reader's channel first and bursty traffic adds heavy
frame-size variance — the three canonical shapes of the load/latency
curve.

The grid descriptor shards one (pattern, load, policy, ring) point per
shard, each rebuilding its generators from ``SeedSequence(seed,
spawn_key=(spawn_index, stream))``, so ``repro-experiments network
--jobs N`` is byte-identical to the serial run.  ``options["rings"]``
replicates every grid point across that many independent rings (distinct
seeds, same configuration) — the multi-ring scale-out path: rings shard
across orchestrator workers and their rows merge into one aggregate row
per grid point (extensive counters summed exactly, rates and latency
percentiles combined as completed-weighted means).  Option keys outside
the documented set of :func:`sweep_shards` are rejected rather than
ignored: a silently dropped typo would run the defaults under a grid
fingerprint (and service job id) of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, List, Sequence

import numpy as np

from ..coding.registry import paper_code_set
from ..coding.theory import raw_ber_for_target_output_ber
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..manager.manager import derated_target_ber
from ..manager.policies import (
    DeadlineConstrainedPolicy,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
)
from ..netsim import NetworkSimulator
from ..netsim.engine import MODES, check_settings
from ..traffic.generators import (
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    UniformTrafficGenerator,
)
from .gridlib import check_grid_size, check_option_names

__all__ = [
    "NetworkSweepResult",
    "request_rate_for_load",
    "grid_knobs",
    "check_known",
    "check_workload",
    "check_design_target",
    "probe_shards",
    "shard_streams",
    "paired_shards",
    "paired_rows",
    "sweep_shards",
    "run_sweep_shard",
    "merge_sweep",
    "DEFAULT_PATTERNS",
    "DEFAULT_LOADS",
    "DEFAULT_POLICIES",
]

#: Default sweep axes: every canonical traffic shape, four load points from
#: light load to near saturation, and the two headline manager policies.
DEFAULT_PATTERNS: tuple[str, ...] = ("uniform", "hotspot", "bursty")
DEFAULT_LOADS: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
DEFAULT_POLICIES: tuple[str, ...] = ("min-power", "min-energy")
DEFAULT_NUM_REQUESTS = 1200
DEFAULT_PAYLOAD_BITS = 4096
DEFAULT_TARGET_BER = 1e-9
DEFAULT_SEED = 2026

#: Largest payload and packet a sweep grid accepts (bits).  A transfer's
#: packets and blocks are counted in NumPy arrays and int64 draws, which a
#: larger one overflows or makes allocate without bound.
MAX_TRANSFER_BITS = 1 << 20

#: Most requests one shard of a sweep grid may simulate (the default is
#: :data:`DEFAULT_NUM_REQUESTS`).  A shard holds every request and record
#: in memory and runs to completion, so this bounds a shard's memory and
#: time; unbounded, a count like ``2**62`` is a job that can only end at
#: the service's job timeout.
MAX_NUM_REQUESTS = 1 << 17

#: Per-shard knobs and their defaults; an option of the same name overrides
#: one, converted to its default's type.
_KNOBS = {
    "rings": 1,
    "num_requests": DEFAULT_NUM_REQUESTS,
    "payload_bits": DEFAULT_PAYLOAD_BITS,
    "target_ber": DEFAULT_TARGET_BER,
    "packet_bits": 512,
    "mode": "probabilistic",
    "max_retries": 4,
    "warmup_fraction": 0.1,
    "seed": DEFAULT_SEED,
}

#: Policies the sweep can select by name (JSON-serializable grid values).
_POLICY_FACTORIES = {
    "min-power": lambda: MinimumPowerPolicy(),
    "min-energy": lambda: MinimumEnergyPolicy(),
    "deadline-1.2": lambda: DeadlineConstrainedPolicy(max_communication_time=1.2),
}


def request_rate_for_load(
    load: float, config: PaperConfig = DEFAULT_CONFIG, *, payload_bits: int = DEFAULT_PAYLOAD_BITS
) -> float:
    """Network-wide Poisson request rate producing a given relative load.

    ``load`` references the offered *payload* bit rate to the aggregate
    serialisation bandwidth (one waveguide group per channel); coding
    overhead pushes the effective channel load slightly higher, which is
    exactly the knee the sweep is after.  ``load`` must be positive and
    finite, and ``payload_bits`` positive.
    """
    if not (math.isfinite(load) and load > 0.0):
        raise ConfigurationError(f"relative load must be positive and finite, got {load!r}")
    if payload_bits < 1:
        raise ConfigurationError(f"payload_bits must be at least 1, got {payload_bits!r}")
    aggregate = config.num_onis * config.num_wavelengths * config.modulation_rate_hz
    return load * aggregate / payload_bits


def grid_knobs(options: dict, knobs: dict) -> dict:
    """The value of every knob of a ``{knob: default}`` table.

    An option overrides a knob's default and is converted to the default's
    type (``int``, ``float`` or ``str``).
    """
    return {name: type(default)(options.get(name, default)) for name, default in knobs.items()}


def check_known(kind: str, values: Sequence, available: Collection) -> None:
    """Reject a grid value outside ``available``; ``kind`` names it in the error."""
    for value in values:
        if value not in available:
            raise ConfigurationError(f"unknown {kind} {value!r}; available: {sorted(available)}")


def check_workload(loads: Sequence[float], knobs: dict, config: PaperConfig) -> None:
    """Reject the loads, request counts and simulator settings a sweep worker would reject.

    Each load goes through :func:`request_rate_for_load`'s check at the
    grid's ``payload_bits``, ``knobs["num_requests"]`` must lie in
    ``[1, MAX_NUM_REQUESTS]``, ``payload_bits`` and ``packet_bits`` at most
    :data:`MAX_TRANSFER_BITS`,
    and the simulator knobs go through
    :func:`~repro.netsim.engine.check_settings` (a grid without a ``mode``
    knob runs probabilistic).  Checked when the grid is described, a bad
    value is a :class:`ConfigurationError` (HTTP 400) rather than a failed
    job.
    """
    for load in loads:
        request_rate_for_load(load, config, payload_bits=knobs["payload_bits"])
    if knobs["num_requests"] < 1:
        raise ConfigurationError("num_requests must be at least 1")
    if knobs["num_requests"] > MAX_NUM_REQUESTS:
        raise ConfigurationError(
            f"num_requests must be at most {MAX_NUM_REQUESTS}, got {knobs['num_requests']}"
        )
    for name in ("payload_bits", "packet_bits"):
        if knobs[name] > MAX_TRANSFER_BITS:
            raise ConfigurationError(f"{name} must be at most {MAX_TRANSFER_BITS}, got {knobs[name]}")
    check_settings(
        mode=knobs.get("mode", MODES[0]),
        packet_bits=knobs["packet_bits"],
        max_retries=knobs["max_retries"],
        warmup_fraction=knobs["warmup_fraction"],
    )


def check_design_target(config: PaperConfig, target_ber: float, margin: float) -> None:
    """Reject a target BER the design chain cannot solve at drift ``margin``.

    Each of the paper's codes inverts the (margin-derated) target as the
    link designer will; a target too deep for the root search, or one
    derated to nothing, raises :class:`ConfigurationError` here instead of
    in the first arrival of a shard.
    """
    for code in paper_code_set(config.ip_bus_width_bits):
        raw_ber_for_target_output_ber(code, derated_target_ber(code, target_ber, margin))


def probe_shards(
    shards: Sequence[dict],
    keys: Sequence[str],
    probe: Callable[[dict, PaperConfig], None],
    config: PaperConfig,
) -> None:
    """Probe the first shard of each distinct ``keys`` combination.

    ``probe`` builds the shard as its worker does (traffic generator,
    models, simulator) without running it, and checks its design target
    (:func:`check_design_target`).  The shards of one combination differ
    only in load, pair and seed streams, so every check the worker's
    constructors make runs when the grid is described, in the same code.
    """
    seen = set()
    for shard in shards:
        key = tuple(shard[name] for name in keys)
        if key not in seen:
            seen.add(key)
            probe(shard, config)


def shard_streams(seed: int, index: int, names: Sequence[str]) -> dict:
    """One shard's named seed streams, ``SeedSequence(seed, spawn_key=(index, stream))``.

    ``stream`` is the name's position in ``names``, and ``index`` the
    shard's grid position, so a payload depends only on its shard's
    parameters: what makes parallel sweeps byte-identical to serial ones.
    """
    return {
        name: np.random.SeedSequence(seed, spawn_key=(index, stream))
        for stream, name in enumerate(names)
    }


def paired_shards(
    experiment: str,
    config: PaperConfig,
    options: dict | None,
    knobs: dict,
    *,
    axis: str,
    values: tuple[Sequence[str], Collection[str]],
    policies: tuple[Sequence[str], Collection[str]],
    loads: Sequence[float],
    probe: Callable[[dict, PaperConfig], None],
) -> list[dict]:
    """Shards of a paired policy sweep: one per (``axis`` value, load, policy) point.

    ``values`` and ``policies`` are the (default, known) values of the
    sweep's own axis (option ``<axis>s``) and of its policies, ``loads``
    the default loads.  Options may override those three lists and every
    knob of ``knobs`` (:func:`grid_knobs`); any other key raises
    :class:`ConfigurationError`.  Every shard carries ``pair_index``, the
    position of its (axis value, load) pair: all policies of a pair share
    the pair's seed streams (:func:`shard_streams`), so they are compared
    on literally the same traffic and channel conditions.  ``probe`` runs
    per (axis value, policy) (:func:`probe_shards`).
    """
    options = options or {}
    check_option_names(experiment, options, (f"{axis}s", "policies", "loads", *knobs))
    axis_values = list(options.get(f"{axis}s", values[0]))
    policy_names = list(options.get("policies", policies[0]))
    load_values = [float(load) for load in options.get("loads", loads)]
    check_known(axis, axis_values, values[1])
    check_known("policy", policy_names, policies[1])
    check_grid_size(experiment, len(axis_values) * len(load_values) * len(policy_names))
    defaults = grid_knobs(options, knobs)
    check_workload(load_values, defaults, config)
    pairs = [(value, load) for value in axis_values for load in load_values]
    shards = [
        {**defaults, axis: value, "policy": policy, "load": load, "pair_index": pair_index}
        for pair_index, (value, load) in enumerate(pairs)
        for policy in policy_names
    ]
    probe_shards(shards, (axis, "policy"), probe, config)
    return shards


def paired_rows(payloads: Sequence[dict], axis: str, static: str) -> tuple[list[dict], dict]:
    """CSV rows of a paired sweep and the ``static`` policy's row of each pair.

    Payloads checkpointed by earlier versions still carry a ``trace`` list
    and resume under the same fingerprint; dropping it keeps their rows
    equal to a fresh run's.  Every row gets ``energy_saved_vs_static_pct``
    against the static row of its (``axis`` value, load) pair (the CSV
    writer needs uniform keys: the static rows and rows without a baseline
    report 0).
    """
    rows = [{key: value for key, value in row.items() if key != "trace"} for row in payloads]
    baselines = {(row[axis], row["load"]): row for row in rows if row["policy"] == static}
    for row in rows:
        baseline = baselines.get((row[axis], row["load"]))
        row["energy_saved_vs_static_pct"] = (
            100.0 * (1.0 - row["total_energy_j"] / baseline["total_energy_j"])
            if baseline is not None
            and baseline["total_energy_j"] > 0.0
            and row["policy"] != static
            else 0.0
        )
    return rows, baselines


def _make_generator(
    pattern: str,
    *,
    config: PaperConfig,
    rate_hz: float,
    payload_bits: int,
    target_ber: float,
    seed: np.random.SeedSequence,
):
    """Build the traffic generator of one grid point (seeded by position)."""
    if pattern == "uniform":
        return UniformTrafficGenerator(
            config.num_onis,
            mean_request_rate_hz=rate_hz,
            payload_bits=payload_bits,
            target_ber=target_ber,
            seed=seed,
        )
    if pattern == "hotspot":
        return HotspotTrafficGenerator(
            config.num_onis,
            hotspot=0,
            hotspot_fraction=0.5,
            mean_request_rate_hz=rate_hz,
            payload_bits=payload_bits,
            target_ber=target_ber,
            seed=seed,
        )
    if pattern == "bursty":
        return BurstyTrafficGenerator(
            config.num_onis,
            mean_request_rate_hz=rate_hz,
            frame_bits=payload_bits,
            target_ber=target_ber,
            seed=seed,
        )
    raise ConfigurationError(
        f"unknown traffic pattern {pattern!r}; available: uniform, hotspot, bursty"
    )


@dataclass
class NetworkSweepResult:
    """Rows of the load sweep (one per pattern x load x policy point)."""

    rows: List[dict]
    num_requests: int
    mode: str

    def to_rows(self) -> List[dict]:
        """CSV rows for the experiment runner."""
        return list(self.rows)

    def render_text(self) -> str:
        """Human-readable latency/throughput/energy table."""
        header = (
            f"{'pattern':<9} {'policy':<11} {'load':>5} {'p50 lat':>10} {'p99 lat':>10} "
            f"{'delivered':>12} {'peak util':>10} {'E/bit':>9} {'retx':>7} {'drop':>5}"
        )
        units = (
            f"{'':<9} {'':<11} {'':>5} {'(ns)':>10} {'(ns)':>10} "
            f"{'(Gb/s)':>12} {'':>10} {'(pJ)':>9} {'':>7} {'':>5}"
        )
        lines = [
            "Network load sweep - discrete-event MWSR ring "
            f"({self.num_requests} requests per point, {self.mode} fault mode)",
            header,
            units,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                f"{row['pattern']:<9} {row['policy']:<11} {row['load']:5.2f} "
                f"{row['latency_p50_s'] * 1e9:10.1f} {row['latency_p99_s'] * 1e9:10.1f} "
                f"{row['delivered_gbps']:12.1f} {row['peak_utilization']:10.3f} "
                f"{row['energy_per_bit_pj']:9.3f} {row['retransmission_rate']:7.4f} "
                f"{row['packets_dropped']:5d}"
            )
        lines.append(
            "Latency percentiles are warm-up trimmed; load references the offered "
            "payload rate to the aggregate serialisation bandwidth."
        )
        return "\n".join(lines)


# ------------------------------------------------------------------ grid API
def sweep_shards(config: PaperConfig, options: dict | None) -> list[dict]:
    """Grid descriptor: one shard per (pattern, load, policy, ring) point.

    ``options`` may override ``patterns``, ``loads``, ``policies`` and
    every knob of :data:`_KNOBS` (all JSON-serializable; they become part
    of the checkpoint fingerprint); any other key raises
    :class:`ConfigurationError`.
    ``rings`` replicates each grid point across that many independently
    seeded rings, one shard per ring, so ``--jobs`` spreads the replicas
    across workers; their rows merge back into one aggregate row per grid
    point.
    """
    options = options or {}
    check_option_names("network", options, ("patterns", "loads", "policies", *_KNOBS))
    patterns = list(options.get("patterns", DEFAULT_PATTERNS))
    loads = [float(load) for load in options.get("loads", DEFAULT_LOADS)]
    policies = list(options.get("policies", DEFAULT_POLICIES))
    check_known("traffic pattern", patterns, DEFAULT_PATTERNS)
    check_known("policy", policies, _POLICY_FACTORIES)
    knobs = grid_knobs(options, _KNOBS)
    check_workload(loads, knobs, config)
    rings = knobs["rings"]
    if rings < 1:
        raise ConfigurationError("rings must be a positive integer")
    check_grid_size("network", len(patterns) * len(policies) * len(loads) * rings)
    points = [
        (pattern, policy, load, ring)
        for pattern in patterns
        for policy in policies
        for load in loads
        for ring in range(rings)
    ]
    shards = [
        {
            "pattern": pattern,
            "policy": policy,
            "load": load,
            "ring": ring,
            **knobs,
            "spawn_index": spawn_index,
        }
        for spawn_index, (pattern, policy, load, ring) in enumerate(points)
    ]
    probe_shards(shards, ("pattern",), _probe, config)
    return shards


def _build(params: dict, config: PaperConfig):
    """One shard's traffic generator and simulator, not yet run."""
    streams = shard_streams(params["seed"], params["spawn_index"], ("traffic", "engine"))
    rate_hz = request_rate_for_load(
        params["load"], config, payload_bits=params["payload_bits"]
    )
    generator = _make_generator(
        params["pattern"],
        config=config,
        rate_hz=rate_hz,
        payload_bits=params["payload_bits"],
        target_ber=params["target_ber"],
        seed=streams["traffic"],
    )
    simulator = NetworkSimulator(
        config=config,
        policy=_POLICY_FACTORIES[params["policy"]](),
        mode=params["mode"],
        packet_bits=params["packet_bits"],
        max_retries=params["max_retries"],
        warmup_fraction=params["warmup_fraction"],
        seed=streams["engine"],
    )
    return generator, simulator


def _probe(params: dict, config: PaperConfig) -> None:
    """Build one shard without running it; check its design target (no drift margin)."""
    _build(params, config)
    check_design_target(config, params["target_ber"], 1.0)


def run_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: simulate one (pattern, load, policy, ring) point; JSON payload.

    Traffic and simulator rebuild their generators from
    ``SeedSequence(seed, spawn_key=(spawn_index, stream))``, so the payload
    depends only on the grid position — the property that makes parallel
    sweeps byte-identical to serial ones.  A ring is one more grid axis:
    its spawn index (hence its streams) differs from every other ring's.
    """
    generator, simulator = _build(params, config)
    result = simulator.run(generator.columns(params["num_requests"]))
    payload = {
        "pattern": params["pattern"],
        "policy": params["policy"],
        "load": params["load"],
    }
    if params.get("rings", 1) > 1:
        payload["ring"] = params.get("ring", 0)
    payload.update(result.metrics().as_dict())
    return payload


#: Extensive counters: summing over rings is exact.
_MERGE_SUM_KEYS = frozenset(
    {
        "transfers_completed",
        "transfers_rejected",
        "warmup_transfers_trimmed",
        "packets_sent",
        "packets_delivered",
        "packets_dropped",
        "packets_retried",
        "transfers_dropped",
        "undetected_corrupt_packets",
        "configuration_switches",
        "fault_transitions",
        "recoveries",
        "reconfiguration_energy_j",
        "total_energy_j",
        "channel_downtime_s",
        "offered_gbps",
        "delivered_gbps",
    }
)
#: Envelope statistics: the aggregate's extreme is the rings' extreme.
_MERGE_MAX_KEYS = frozenset({"sim_end_time_s", "peak_utilization"})
#: Intensive statistics merged as weighted means — the weight is the count
#: the statistic was computed over.  Percentile merging is approximate
#: (the exact pooled percentile would need the raw latencies), which the
#: sweep accepts: rings are i.i.d. replicas, so completed-weighted means
#: of their percentiles converge on the pooled values.
_MERGE_WEIGHT_KEYS = {
    "latency_mean_s": "transfers_completed",
    "latency_p50_s": "transfers_completed",
    "latency_p95_s": "transfers_completed",
    "latency_p99_s": "transfers_completed",
    "retransmission_rate": "packets_sent",
    "packet_drop_rate": "packets_sent",
    "delivered_packet_error_rate": "packets_delivered",
    "delivered_bit_error_rate": "packets_delivered",
    "crc_escape_rate": "packets_delivered",
    "mean_time_to_recover_s": "recoveries",
}


def _weighted_mean(values, weights) -> float:
    total = sum(weights)
    if total <= 0:
        return sum(values) / len(values)
    return sum(v * w for v, w in zip(values, weights)) / total


def _merge_ring_rows(rows: Sequence[dict]) -> dict:
    """Collapse one grid point's per-ring rows into its aggregate row."""
    if len(rows) == 1:
        row = dict(rows[0])
        row.pop("ring", None)
        return row
    merged: dict = {}
    for key in rows[0]:
        if key == "ring":
            continue
        values = [row[key] for row in rows]
        if key in ("pattern", "policy", "load"):
            merged[key] = values[0]
        elif key in _MERGE_SUM_KEYS:
            merged[key] = sum(values)
        elif key in _MERGE_MAX_KEYS:
            merged[key] = max(values)
        elif key == "energy_per_bit_pj":
            # Exact: recover each ring's delivered bits from its own
            # energy-per-bit, then divide pooled energy by pooled bits.
            energies = [row["total_energy_j"] for row in rows]
            bits = [e / (pj * 1e-12) for e, pj in zip(energies, values) if pj > 0.0]
            merged[key] = (
                sum(e for e, pj in zip(energies, values) if pj > 0.0) / sum(bits) * 1e12
                if bits
                else 0.0
            )
        else:
            weight_key = _MERGE_WEIGHT_KEYS.get(key)
            weights = (
                [row[weight_key] for row in rows]
                if weight_key is not None
                else [1.0] * len(rows)
            )
            merged[key] = _weighted_mean(values, weights)
    return merged


def merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble shard payloads into the (text report, CSV rows) pair.

    Per-ring payloads of the same (pattern, policy, load) point merge into
    one aggregate row; with ``rings=1`` (the default) this is the identity
    and the output is unchanged from the single-ring sweep.
    """
    knobs = grid_knobs(options or {}, _KNOBS)
    groups: dict[tuple, list[dict]] = {}
    for row in payloads:
        groups.setdefault((row["pattern"], row["policy"], row["load"]), []).append(row)
    result = NetworkSweepResult(
        rows=[_merge_ring_rows(rows) for rows in groups.values()],
        num_requests=knobs["num_requests"],
        mode=knobs["mode"],
    )
    return result.render_text(), result.to_rows()
