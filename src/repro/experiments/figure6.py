"""Experiments ``figure6a`` and ``figure6b``: channel power and Pareto trade-off.

Figure 6a breaks the per-wavelength channel power at BER = 1e-11 into its
three contributions (encoder/decoder interfaces, modulators, lasers) for the
three transmission schemes; the laser dominates (92% without ECC) and the
coded schemes cut the total channel power by ~45-50%.

Figure 6b plots, for BER targets from 1e-6 to 1e-12, the per-wavelength
channel power against the communication-time overhead of each scheme; every
scheme sits on the Pareto front for its own CT column, which is the paper's
argument that the choice should be left to a runtime manager.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

from ..coding.registry import paper_code_by_name
from ..config import PaperConfig
from ..interfaces.synthesis import synthesize_interfaces
from ..link.design import OpticalLinkDesigner
from ..manager.pareto import ParetoPoint, pareto_front
from ..power.channel import ChannelPowerBreakdown, channel_power_breakdown
from ..power.energy import EnergyMetrics, energy_metrics
from .gridlib import check_grid_size, check_option_names, code_names
from .paperdata import (
    Comparison,
    PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW,
    PAPER_ENERGY_PER_BIT_PJ,
    PAPER_LASER_SHARE_UNCODED,
)

__all__ = [
    "Figure6aResult",
    "Figure6bResult",
    "figure6a_sweep_shards",
    "run_figure6a_sweep_shard",
    "merge_figure6a_sweep",
    "figure6b_sweep_shards",
    "run_figure6b_sweep_shard",
    "merge_figure6b_sweep",
]


@dataclass
class Figure6aResult:
    """Per-wavelength channel power breakdown at one BER target (Figure 6a)."""

    target_ber: float
    breakdowns: Dict[str, ChannelPowerBreakdown]
    energies: Dict[str, EnergyMetrics]
    comparisons: List[Comparison] = field(default_factory=list)

    def render_text(self) -> str:
        """Stacked-bar style text rendering of the breakdown."""
        lines = [
            f"Figure 6a - channel power per wavelength at BER = {self.target_ber:g}",
            f"{'scheme':<12} {'P_enc+dec':>12} {'P_MR':>8} {'P_laser':>9} {'total':>9} {'laser %':>8} {'CT':>6}",
        ]
        for name, b in self.breakdowns.items():
            lines.append(
                f"{name:<12} {b.interface_power_w * 1e3:12.4f} {b.modulator_power_w * 1e3:8.2f} "
                f"{b.laser_power_w * 1e3:9.2f} {b.total_power_mw:9.2f} "
                f"{b.laser_share * 100:8.1f} {b.communication_time:6.2f}"
            )
        lines.append("")
        lines.append(f"{'scheme':<12} {'E/bit (mod-ref)':>16} {'E/bit (IP-ref)':>15}")
        for name, e in self.energies.items():
            lines.append(
                f"{name:<12} {e.energy_per_bit_modulation_pj:13.2f} pJ "
                f"{e.energy_per_bit_ip_pj:12.2f} pJ"
            )
        lines.append("")
        lines.append("Comparison against the paper:")
        lines.extend(c.render() for c in self.comparisons)
        return "\n".join(lines)


@dataclass
class Figure6bResult:
    """Power vs communication-time trade-off over a BER range (Figure 6b)."""

    points: List[ParetoPoint]
    front: List[ParetoPoint]

    def render_text(self) -> str:
        """Text rendering of the trade-off cloud."""
        lines = [
            "Figure 6b - channel power vs communication time",
            f"{'BER':>10} {'scheme':<12} {'CT':>6} {'P_channel mW':>14} {'on front':>9}",
        ]
        front_ids = {id(p) for p in self.front}
        for point in self.points:
            lines.append(
                f"{point.target_ber:10.0e} {point.code_name:<12} {point.communication_time:6.2f} "
                f"{point.channel_power_w * 1e3:14.2f} {'yes' if id(point) in front_ids else 'no':>9}"
            )
        return "\n".join(lines)


def _figure6a_comparisons(
    breakdowns: Dict[str, ChannelPowerBreakdown],
    energies: Dict[str, EnergyMetrics],
    config: PaperConfig,
) -> List[Comparison]:
    """Compare a Figure 6a breakdown against the paper's reported values."""
    comparisons: List[Comparison] = []
    if "w/o ECC" in breakdowns:
        comparisons.append(
            Comparison(
                quantity="laser share of channel power [w/o ECC]",
                measured=breakdowns["w/o ECC"].laser_share,
                reference=PAPER_LASER_SHARE_UNCODED,
                unit="",
            )
        )
    for name, reference in PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW.items():
        if name in breakdowns:
            measured = breakdowns[name].total_power_mw * config.num_wavelengths
            comparisons.append(
                Comparison(
                    quantity=f"channel power per waveguide [{name}]",
                    measured=measured,
                    reference=reference,
                    unit="mW",
                )
            )
    for name, reference in PAPER_ENERGY_PER_BIT_PJ.items():
        if name in energies:
            comparisons.append(
                Comparison(
                    quantity=f"energy per bit (IP-referenced) [{name}]",
                    measured=energies[name].energy_per_bit_ip_pj,
                    reference=reference,
                    unit="pJ",
                )
            )
    return comparisons


# ------------------------------------------------------------------ grid API
def figure6a_sweep_shards(
    config: PaperConfig, options: dict | None
) -> list[dict]:
    """Grid descriptor for Figure 6a: one shard per coding scheme."""
    options = options or {}
    check_option_names("figure6a", options, ("codes", "target_ber"))
    names = code_names("figure6a", options, config)
    target_ber = float(options.get("target_ber", 1e-11))
    check_grid_size("figure6a", len(names))
    return [{"code": name, "target_ber": target_ber} for name in names]


def run_figure6a_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: power breakdown + energy metrics of one scheme; JSON payload."""
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    code = paper_code_by_name(params["code"], config.ip_bus_width_bits)
    breakdown = channel_power_breakdown(
        code, params["target_ber"], config=config, designer=designer, synthesis=synthesis
    )
    return {
        "code": params["code"],
        "breakdown": asdict(breakdown),
        "energy": asdict(energy_metrics(breakdown, config=config)),
    }


def merge_figure6a_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble Figure 6a shard payloads into the (text, rows) pair."""
    options = options or {}
    breakdowns = {p["code"]: ChannelPowerBreakdown(**p["breakdown"]) for p in payloads}
    energies = {p["code"]: EnergyMetrics(**p["energy"]) for p in payloads}
    result = Figure6aResult(
        target_ber=float(options.get("target_ber", 1e-11)),
        breakdowns=breakdowns,
        energies=energies,
        comparisons=_figure6a_comparisons(breakdowns, energies, config),
    )
    rows = [breakdown.as_dict() for breakdown in result.breakdowns.values()]
    return result.render_text(), rows


def figure6b_sweep_shards(
    config: PaperConfig, options: dict | None
) -> list[dict]:
    """Grid descriptor for Figure 6b: one shard per target BER."""
    options = options or {}
    check_option_names("figure6b", options, ("target_bers", "codes"))
    target_bers = [float(ber) for ber in options.get("target_bers", (1e-6, 1e-8, 1e-10, 1e-12))]
    names = code_names("figure6b", options, config)
    check_grid_size("figure6b", len(target_bers) * len(names))
    return [{"target_ber": ber, "codes": names} for ber in target_bers]


def run_figure6b_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: the trade-off points of every scheme at one BER; JSON payload."""
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    points = []
    for name in params["codes"]:
        breakdown = channel_power_breakdown(
            paper_code_by_name(name, config.ip_bus_width_bits),
            params["target_ber"],
            config=config,
            designer=designer,
            synthesis=synthesis,
        )
        if not breakdown.feasible:
            continue
        points.append(
            asdict(
                ParetoPoint(
                    code_name=name,
                    target_ber=float(params["target_ber"]),
                    communication_time=breakdown.communication_time,
                    channel_power_w=breakdown.total_power_w,
                )
            )
        )
    return {"target_ber": params["target_ber"], "points": points}


def merge_figure6b_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble Figure 6b shard payloads into the (text, rows) pair."""
    points = [
        ParetoPoint(**point) for payload in payloads for point in payload["points"]
    ]
    result = Figure6bResult(points=points, front=pareto_front(points))
    rows = [
        {
            "code": p.code_name,
            "target_ber": p.target_ber,
            "communication_time": p.communication_time,
            "channel_power_mw": p.channel_power_w * 1e3,
        }
        for p in result.points
    ]
    return result.render_text(), rows
