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

import numpy as np

from ..coding.registry import get_code, paper_code_by_name, paper_code_set
from ..config import DEFAULT_CONFIG, PaperConfig
from ..interfaces.synthesis import synthesize_interfaces
from ..link.design import OpticalLinkDesigner
from ..manager.pareto import ParetoPoint, pareto_front
from ..power.channel import ChannelPowerBreakdown, channel_power_breakdown
from ..power.energy import EnergyMetrics, energy_metrics
from .gridlib import check_grid_size
from .paperdata import (
    Comparison,
    PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW,
    PAPER_ENERGY_PER_BIT_PJ,
    PAPER_LASER_SHARE_UNCODED,
)

__all__ = [
    "Figure6aResult",
    "Figure6bResult",
    "run_figure6a",
    "run_figure6b",
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

    def total_power_mw(self, code_name: str) -> float:
        """Total per-wavelength channel power of one scheme, in mW."""
        return self.breakdowns[code_name].total_power_mw

    def power_reduction_vs_uncoded(self, code_name: str) -> float:
        """Fractional channel-power reduction of a scheme vs the uncoded one."""
        baseline = self.breakdowns["w/o ECC"].total_power_w
        return 1.0 - self.breakdowns[code_name].total_power_w / baseline

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

    target_bers: tuple[float, ...]
    points: List[ParetoPoint]
    front: List[ParetoPoint]

    def points_for_ber(self, target_ber: float) -> List[ParetoPoint]:
        """All scheme points at one BER target."""
        return [
            p
            for p in self.points
            if np.isclose(p.target_ber, target_ber, rtol=1e-9, atol=0.0)
        ]

    def front_for_ber(self, target_ber: float) -> List[ParetoPoint]:
        """The Pareto-optimal subset at one BER target."""
        return pareto_front(self.points_for_ber(target_ber))

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


def _paper_codes(config: PaperConfig, codes: Sequence | None):
    return list(codes) if codes is not None else paper_code_set(config.ip_bus_width_bits)


def run_figure6a(
    config: PaperConfig = DEFAULT_CONFIG,
    *,
    target_ber: float = 1e-11,
    codes: Sequence | None = None,
) -> Figure6aResult:
    """Compute the Figure 6a power breakdown and energy-per-bit figures."""
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    code_list = _paper_codes(config, codes)

    breakdowns: Dict[str, ChannelPowerBreakdown] = {}
    energies: Dict[str, EnergyMetrics] = {}
    for code in code_list:
        breakdown = channel_power_breakdown(
            code, target_ber, config=config, designer=designer, synthesis=synthesis
        )
        breakdowns[code.name] = breakdown
        energies[code.name] = energy_metrics(breakdown, config=config)

    return Figure6aResult(
        target_ber=target_ber,
        breakdowns=breakdowns,
        energies=energies,
        comparisons=_figure6a_comparisons(breakdowns, energies, config),
    )


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


def run_figure6b(
    config: PaperConfig = DEFAULT_CONFIG,
    *,
    target_bers: Sequence[float] = (1e-6, 1e-8, 1e-10, 1e-12),
    codes: Sequence | None = None,
) -> Figure6bResult:
    """Compute the Figure 6b power/performance trade-off cloud."""
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    code_list = _paper_codes(config, codes)

    points: List[ParetoPoint] = []
    for ber in target_bers:
        for code in code_list:
            breakdown = channel_power_breakdown(
                code, ber, config=config, designer=designer, synthesis=synthesis
            )
            if not breakdown.feasible:
                continue
            points.append(
                ParetoPoint(
                    code_name=code.name,
                    target_ber=float(ber),
                    communication_time=breakdown.communication_time,
                    channel_power_w=breakdown.total_power_w,
                )
            )
    return Figure6bResult(
        target_bers=tuple(target_bers), points=points, front=pareto_front(points)
    )


# ------------------------------------------------------------------ grid API
def figure6a_sweep_shards(
    config: PaperConfig = DEFAULT_CONFIG, options: dict | None = None
) -> list[dict]:
    """Grid descriptor for Figure 6a: one shard per coding scheme."""
    options = options or {}
    code_names = options.get(
        "codes", [code.name for code in paper_code_set(config.ip_bus_width_bits)]
    )
    target_ber = float(options.get("target_ber", 1e-11))
    check_grid_size("figure6a", len(code_names))
    return [{"code": name, "target_ber": target_ber} for name in code_names]


def run_figure6a_sweep_shard(params: dict, config: PaperConfig = DEFAULT_CONFIG) -> dict:
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
    config: PaperConfig = DEFAULT_CONFIG,
    options: dict | None = None,
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
    config: PaperConfig = DEFAULT_CONFIG, options: dict | None = None
) -> list[dict]:
    """Grid descriptor for Figure 6b: one shard per target BER."""
    options = options or {}
    target_bers = [float(ber) for ber in options.get("target_bers", (1e-6, 1e-8, 1e-10, 1e-12))]
    code_names = options.get(
        "codes", [code.name for code in paper_code_set(config.ip_bus_width_bits)]
    )
    check_grid_size("figure6b", len(target_bers) * len(code_names))
    return [{"target_ber": ber, "codes": code_names} for ber in target_bers]


def run_figure6b_sweep_shard(params: dict, config: PaperConfig = DEFAULT_CONFIG) -> dict:
    """Worker: the trade-off points of every scheme at one BER; JSON payload."""
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    # Resolve the whole shard's codes in one pass rather than rebuilding the
    # paper set per name inside the loop.
    paper_set = {code.name: code for code in paper_code_set(config.ip_bus_width_bits)}
    points = []
    for name in params["codes"]:
        breakdown = channel_power_breakdown(
            paper_set[name] if name in paper_set else get_code(name),
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
    config: PaperConfig = DEFAULT_CONFIG,
    options: dict | None = None,
) -> tuple[str, list[dict]]:
    """Assemble Figure 6b shard payloads into the (text, rows) pair."""
    points = [
        ParetoPoint(**point) for payload in payloads for point in payload["points"]
    ]
    result = Figure6bResult(
        target_bers=tuple(payload["target_ber"] for payload in payloads),
        points=points,
        front=pareto_front(points),
    )
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
