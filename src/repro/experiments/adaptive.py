"""Experiment ``adaptive``: online ECC/laser adaptation vs static worst-case.

The paper's central claim is that an OS-level manager reconfiguring the
ECC scheme and laser power *at run time* saves energy over a link designed
statically for worst-case channel conditions.  This experiment finally
simulates that scenario: the discrete-event engine runs under time-varying
raw-BER drift (:mod:`repro.netsim.dynamics`) and three management policies
are compared on the same traffic, seeds and drift trajectories:

``static-worst``
    Every transfer is provisioned for the drift model's worst-case
    multiplier — the paper's static design.  Meets the BER target at all
    times and pays for it constantly.
``adaptive``
    The online controller (:class:`~repro.manager.runtime.AdaptiveEccController`)
    watches the receiver's failure telemetry through a windowed monitor and
    switches margin levels with hysteresis; reconfiguration latency and
    energy are charged in the event loop.
``oracle``
    A clairvoyant controller that always sits on the smallest sufficient
    margin level — the lower bound online control is measured against.

Per grid point (drift profile x policy x load) the payload carries the full
network metrics and the controller's switch/energy accounting (switch
energy is part of ``total_energy_j``); the merge step reports each
policy's **energy saved versus the static worst-case design** — the paper's
headline number — on identical workloads.

One shard per grid point, each rebuilding traffic / engine / drift /
telemetry generators from ``SeedSequence(seed, spawn_key=(pair_index,
stream))``, so ``repro-experiments adaptive --jobs N`` is byte-identical to
the serial run and all policies of a pair face literally the same drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..config import PaperConfig
from ..manager.policies import (
    FailureRateMonitor,
    HysteresisSwitchingPolicy,
    MinimumPowerPolicy,
    margin_levels,
)
from ..manager.runtime import AdaptiveEccController
from ..netsim import NetworkSimulator, make_drift_model
from ..netsim.dynamics import DRIFT_PROFILES
from ..traffic.generators import UniformTrafficGenerator
from .network import (
    check_design_target,
    grid_knobs,
    paired_rows,
    paired_shards,
    request_rate_for_load,
    shard_streams,
)

__all__ = [
    "AdaptiveSweepResult",
    "sweep_shards",
    "run_sweep_shard",
    "merge_sweep",
    "DEFAULT_DRIFTS",
    "DEFAULT_POLICIES",
    "DEFAULT_LOADS",
]

#: Default sweep axes: the two deterministic drift shapes, the three
#: management policies and a light/heavy load pair.
DEFAULT_DRIFTS: tuple[str, ...] = ("thermal", "aging")
DEFAULT_POLICIES: tuple[str, ...] = ("static-worst", "adaptive", "oracle")
DEFAULT_LOADS: tuple[float, ...] = (0.2, 0.5)
DEFAULT_NUM_REQUESTS = 1200
DEFAULT_PAYLOAD_BITS = 4096
DEFAULT_TARGET_BER = 1e-9
DEFAULT_WORST_CASE_MULTIPLIER = 16.0
DEFAULT_SEED = 20260

_POLICY_MODES = {"static-worst": "static", "adaptive": "adaptive", "oracle": "oracle"}

#: Per-shard knobs and their defaults; an option of the same name overrides
#: one, converted to its default's type.
_KNOBS = {
    "num_requests": DEFAULT_NUM_REQUESTS,
    "payload_bits": DEFAULT_PAYLOAD_BITS,
    "target_ber": DEFAULT_TARGET_BER,
    "packet_bits": 512,
    "max_retries": 4,
    "warmup_fraction": 0.1,
    "worst_case_multiplier": DEFAULT_WORST_CASE_MULTIPLIER,
    "margin_ratio": 2.0,
    "monitor_window_blocks": 8192,
    "switch_latency_s": 200e-9,
    "switch_energy_j": 1e-9,
    "seed": DEFAULT_SEED,
}


# ------------------------------------------------------------------ grid API
def sweep_shards(config: PaperConfig, options: dict | None) -> list[dict]:
    """Grid descriptor: one shard per (drift profile, policy, load) point.

    ``options`` may override ``drifts``, ``policies``, ``loads`` and every
    knob of :data:`_KNOBS` (all JSON-serializable; they become part of the
    checkpoint fingerprint); any other key raises
    :class:`ConfigurationError` (see :func:`~.network.paired_shards`).
    """
    return paired_shards(
        "adaptive",
        config,
        options,
        _KNOBS,
        axis="drift",
        values=(DEFAULT_DRIFTS, DRIFT_PROFILES),
        policies=(DEFAULT_POLICIES, _POLICY_MODES),
        loads=DEFAULT_LOADS,
        probe=_probe,
    )


def _build(params: dict, config: PaperConfig):
    """One shard's traffic generator and simulator, not yet run, and its top margin."""
    streams = shard_streams(
        params["seed"], params["pair_index"], ("traffic", "engine", "drift", "telemetry")
    )
    rate_hz = request_rate_for_load(params["load"], config, payload_bits=params["payload_bits"])
    generator = UniformTrafficGenerator(
        config.num_onis,
        mean_request_rate_hz=rate_hz,
        payload_bits=params["payload_bits"],
        target_ber=params["target_ber"],
        seed=streams["traffic"],
    )
    horizon_s = params["num_requests"] / rate_hz
    dynamics = make_drift_model(
        params["drift"],
        config.num_onis,
        seed=streams["drift"],
        worst_case_multiplier=params["worst_case_multiplier"],
        timescale_s=horizon_s,
    )
    worst = dynamics.worst_case_multiplier if dynamics is not None else 1.0
    controller = AdaptiveEccController(
        margins=margin_levels(worst, ratio=params["margin_ratio"]),
        mode=_POLICY_MODES[params["policy"]],
        monitor=FailureRateMonitor(window_blocks=params["monitor_window_blocks"]),
        switching_policy=HysteresisSwitchingPolicy(),
        switch_latency_s=params["switch_latency_s"],
        switch_energy_j=params["switch_energy_j"],
    )
    simulator = NetworkSimulator(
        config=config,
        policy=MinimumPowerPolicy(),
        mode="probabilistic",
        packet_bits=params["packet_bits"],
        max_retries=params["max_retries"],
        warmup_fraction=params["warmup_fraction"],
        seed=streams["engine"],
        dynamics=dynamics,
        controller=controller,
        telemetry_seed=streams["telemetry"],
    )
    return generator, simulator, worst


def _probe(params: dict, config: PaperConfig) -> None:
    """Build one shard without running it; check its design target at the top margin."""
    _, _, worst = _build(params, config)
    check_design_target(config, params["target_ber"], worst)


def run_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: simulate one (drift, policy, load) point; JSON payload.

    Four independent per-point streams are derived from the grid position —
    traffic (0), engine (1), drift trajectories (2) and monitor telemetry
    (3) — so the payload depends only on the shard parameters, which is
    what makes parallel sweeps byte-identical to serial ones.  All policies
    of a (drift, load) pair share the same ``pair_index`` and therefore
    face literally the same workload and channel conditions.
    """
    generator, simulator, worst = _build(params, config)
    result = simulator.run(generator.columns(params["num_requests"]))
    payload = {
        "drift": params["drift"],
        "policy": params["policy"],
        "load": params["load"],
        "margin_top": worst,
    }
    payload.update(result.metrics().as_dict())
    return payload


@dataclass
class AdaptiveSweepResult:
    """Rows of the adaptation sweep (one per drift x policy x load point)."""

    rows: List[dict]
    num_requests: int

    def to_rows(self) -> List[dict]:
        """CSV rows for the experiment runner."""
        return list(self.rows)

    def render_text(self) -> str:
        """Human-readable energy/adaptation comparison table."""
        header = (
            f"{'drift':<12} {'policy':<13} {'load':>5} {'energy':>10} {'saved':>7} "
            f"{'switch':>7} {'p99 lat':>10} {'delivered':>11} {'dBER':>9}"
        )
        units = (
            f"{'':<12} {'':<13} {'':>5} {'(uJ)':>10} {'(%)':>7} "
            f"{'':>7} {'(ns)':>10} {'(Gb/s)':>11} {'':>9}"
        )
        lines = [
            "Online adaptive-ECC control under time-varying channels "
            f"({self.num_requests} requests per point, identical traffic/drift per policy)",
            header,
            units,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                f"{row['drift']:<12} {row['policy']:<13} {row['load']:5.2f} "
                f"{row['total_energy_j'] * 1e6:10.4f} "
                f"{row.get('energy_saved_vs_static_pct', 0.0):7.2f} "
                f"{row['configuration_switches']:7d} {row['latency_p99_s'] * 1e9:10.1f} "
                f"{row['delivered_gbps']:11.1f} {row['delivered_bit_error_rate']:9.2e}"
            )
        adaptive_rows = [
            row for row in self.rows if row["policy"] == "adaptive" and "energy_saved_vs_static_pct" in row
        ]
        if adaptive_rows:
            mean_saved = sum(row["energy_saved_vs_static_pct"] for row in adaptive_rows) / len(
                adaptive_rows
            )
            lines.append(
                f"Adaptive control saves {mean_saved:.1f}% channel energy on average vs the "
                "static worst-case design at the same BER target (switch penalties included)."
            )
        lines.append(
            "Energy includes reconfiguration penalties; 'saved' is relative to the "
            "static-worst policy of the same (drift, load) point."
        )
        return "\n".join(lines)


def merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble shard payloads into the (text report, CSV rows) pair.

    Annotates every non-static row with ``energy_saved_vs_static_pct``
    against the static-worst row of the same (drift, load) point.
    """
    rows, _ = paired_rows(payloads, "drift", "static-worst")
    result = AdaptiveSweepResult(
        rows=rows, num_requests=grid_knobs(options or {}, _KNOBS)["num_requests"]
    )
    return result.render_text(), result.to_rows()
