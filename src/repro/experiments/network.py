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

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..manager.policies import (
    DeadlineConstrainedPolicy,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
)
from ..netsim import NetworkSimulator
from ..traffic.generators import (
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    UniformTrafficGenerator,
)
from .gridlib import check_grid_size, check_option_names

__all__ = [
    "NetworkSweepResult",
    "request_rate_for_load",
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

#: Option keys :func:`sweep_shards` understands.
_OPTION_KEYS = frozenset(
    {
        "patterns",
        "loads",
        "policies",
        "num_requests",
        "payload_bits",
        "target_ber",
        "packet_bits",
        "mode",
        "rings",
        "max_retries",
        "warmup_fraction",
        "seed",
    }
)

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
    exactly the knee the sweep is after.
    """
    if load <= 0.0:
        raise ConfigurationError("relative load must be positive")
    aggregate = config.num_onis * config.num_wavelengths * config.modulation_rate_hz
    return load * aggregate / payload_bits


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
def sweep_shards(config: PaperConfig = DEFAULT_CONFIG, options: dict | None = None) -> list[dict]:
    """Grid descriptor: one shard per (pattern, load, policy, ring) point.

    ``options`` may override ``patterns``, ``loads``, ``policies``,
    ``num_requests``, ``payload_bits``, ``target_ber``, ``packet_bits``,
    ``mode``, ``rings``, ``max_retries``, ``warmup_fraction`` and ``seed``
    (all JSON-serializable; they become part of the checkpoint
    fingerprint); any other key raises :class:`ConfigurationError`.
    ``rings`` replicates each grid point across that many independently
    seeded rings, one shard per ring, so ``--jobs`` spreads the replicas
    across workers; their rows merge back into one aggregate row per grid
    point.
    """
    options = options or {}
    check_option_names("network", options, _OPTION_KEYS)
    patterns = list(options.get("patterns", DEFAULT_PATTERNS))
    loads = [float(load) for load in options.get("loads", DEFAULT_LOADS)]
    policies = list(options.get("policies", DEFAULT_POLICIES))
    for policy in policies:
        if policy not in _POLICY_FACTORIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; available: {sorted(_POLICY_FACTORIES)}"
            )
    rings = int(options.get("rings", 1))
    if rings < 1:
        raise ConfigurationError("rings must be a positive integer")
    check_grid_size("network", len(patterns) * len(policies) * len(loads) * rings)
    shards = []
    spawn_index = 0
    for pattern in patterns:
        for policy in policies:
            for load in loads:
                for ring in range(rings):
                    shards.append(
                        {
                            "pattern": pattern,
                            "policy": policy,
                            "load": load,
                            "ring": ring,
                            "rings": rings,
                            "num_requests": int(options.get("num_requests", DEFAULT_NUM_REQUESTS)),
                            "payload_bits": int(options.get("payload_bits", DEFAULT_PAYLOAD_BITS)),
                            "target_ber": float(options.get("target_ber", DEFAULT_TARGET_BER)),
                            "packet_bits": int(options.get("packet_bits", 512)),
                            "mode": str(options.get("mode", "probabilistic")),
                            "max_retries": int(options.get("max_retries", 4)),
                            "warmup_fraction": float(options.get("warmup_fraction", 0.1)),
                            "seed": int(options.get("seed", DEFAULT_SEED)),
                            "spawn_index": spawn_index,
                        }
                    )
                    spawn_index += 1
    return shards


def run_sweep_shard(params: dict, config: PaperConfig = DEFAULT_CONFIG) -> dict:
    """Worker: simulate one (pattern, load, policy, ring) point; JSON payload.

    Traffic and simulator rebuild their generators from
    ``SeedSequence(seed, spawn_key=(spawn_index, stream))``, so the payload
    depends only on the grid position — the property that makes parallel
    sweeps byte-identical to serial ones.  A ring is one more grid axis:
    its spawn index (hence its streams) differs from every other ring's.
    """
    rate_hz = request_rate_for_load(
        params["load"], config, payload_bits=params["payload_bits"]
    )
    generator = _make_generator(
        params["pattern"],
        config=config,
        rate_hz=rate_hz,
        payload_bits=params["payload_bits"],
        target_ber=params["target_ber"],
        seed=np.random.SeedSequence(params["seed"], spawn_key=(params["spawn_index"], 0)),
    )
    simulator = NetworkSimulator(
        config=config,
        policy=_POLICY_FACTORIES[params["policy"]](),
        mode=params["mode"],
        packet_bits=params["packet_bits"],
        max_retries=params["max_retries"],
        warmup_fraction=params["warmup_fraction"],
        seed=np.random.SeedSequence(params["seed"], spawn_key=(params["spawn_index"], 1)),
    )
    result = simulator.run(generator.generate(params["num_requests"]))
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
    config: PaperConfig = DEFAULT_CONFIG,
    options: dict | None = None,
) -> tuple[str, list[dict]]:
    """Assemble shard payloads into the (text report, CSV rows) pair.

    Per-ring payloads of the same (pattern, policy, load) point merge into
    one aggregate row; with ``rings=1`` (the default) this is the identity
    and the output is unchanged from the single-ring sweep.
    """
    options = options or {}
    groups: dict[tuple, list[dict]] = {}
    for row in payloads:
        groups.setdefault((row["pattern"], row["policy"], row["load"]), []).append(row)
    result = NetworkSweepResult(
        rows=[_merge_ring_rows(rows) for rows in groups.values()],
        num_requests=int(options.get("num_requests", DEFAULT_NUM_REQUESTS)),
        mode=str(options.get("mode", "probabilistic")),
    )
    return result.render_text(), result.to_rows()
