"""Experiment ``headline``: the paper's summary claims.

Section V-C condenses the study into a handful of headline numbers:

* the lasers draw ~92% of the channel power without ECC,
* H(71,64) and H(7,4) cut the per-wavelength channel power by ~45% / ~49%,
* the per-waveguide power drops from 251 mW to 136 mW with H(71,64),
* scaled to 16 waveguides per channel and 12 ONIs the saving reaches ~22 W,
* a BER of 1e-12 is unreachable without ECC but reachable with both codes.

This experiment recomputes each claim from the models and reports the
measured values side by side with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..coding.registry import paper_code_set
from ..config import DEFAULT_CONFIG, PaperConfig
from ..interfaces.synthesis import synthesize_interfaces
from ..link.design import OpticalLinkDesigner
from ..power.channel import channel_power_breakdown
from ..power.interconnect import (
    InterconnectPowerSummary,
    interconnect_power_saving_w,
    interconnect_power_summary,
)
from .gridlib import single_merge_sweep as merge_sweep, single_sweep_shards
from .paperdata import Comparison, PAPER_LASER_SHARE_UNCODED, PAPER_TOTAL_SAVING_W

__all__ = ["HeadlineResult", "run_headline", "sweep_shards", "run_sweep_shard", "merge_sweep"]


@dataclass
class HeadlineResult:
    """Measured values of every headline claim."""

    target_ber: float
    laser_share_uncoded: float
    power_reduction: Dict[str, float]
    per_waveguide_power_mw: Dict[str, float]
    total_power_w: Dict[str, float]
    total_saving_w: float
    ber_1e12_feasible: Dict[str, bool]
    comparisons: List[Comparison] = field(default_factory=list)

    def render_text(self) -> str:
        """Text rendering of the headline claims."""
        lines = [
            f"Headline claims at BER = {self.target_ber:g}",
            f"laser share of channel power (w/o ECC): {self.laser_share_uncoded * 100:.1f}%",
        ]
        for name, reduction in self.power_reduction.items():
            lines.append(f"channel power reduction with {name}: {reduction * 100:.1f}%")
        for name, value in self.per_waveguide_power_mw.items():
            lines.append(f"per-waveguide power [{name}]: {value:.1f} mW")
        lines.append(f"total interconnect saving (H(71,64) vs w/o ECC): {self.total_saving_w:.1f} W")
        feasibility = ", ".join(
            f"{name}: {'yes' if ok else 'no'}" for name, ok in self.ber_1e12_feasible.items()
        )
        lines.append(f"BER 1e-12 reachable? {feasibility}")
        lines.append("")
        lines.append("Comparison against the paper:")
        lines.extend(c.render() for c in self.comparisons)
        return "\n".join(lines)


#: The BER the headline claims are stated at.
_TARGET_BER = 1e-11


def run_headline(config: PaperConfig = DEFAULT_CONFIG) -> HeadlineResult:
    """Recompute the paper's headline claims at BER :data:`_TARGET_BER`."""
    codes = paper_code_set(config.ip_bus_width_bits)
    designer = OpticalLinkDesigner(config=config)
    synthesis = synthesize_interfaces(config=config)
    breakdowns = {
        code.name: channel_power_breakdown(
            code, _TARGET_BER, config=config, designer=designer, synthesis=synthesis
        )
        for code in codes
    }

    uncoded = breakdowns["w/o ECC"]
    laser_share = uncoded.laser_share
    power_reduction = {
        name: 1.0 - breakdown.total_power_w / uncoded.total_power_w
        for name, breakdown in breakdowns.items()
        if name != "w/o ECC"
    }
    summaries: Dict[str, InterconnectPowerSummary] = {
        name: interconnect_power_summary(breakdown, config=config)
        for name, breakdown in breakdowns.items()
    }
    per_waveguide = {name: s.per_waveguide_power_w * 1e3 for name, s in summaries.items()}
    totals = {name: s.total_power_w for name, s in summaries.items()}
    saving = interconnect_power_saving_w(summaries["w/o ECC"], summaries["H(71,64)"])

    feasibility = {
        code.name: designer.design_point(code, 1e-12).feasible for code in codes
    }

    comparisons = [
        Comparison(
            quantity="laser share of channel power (w/o ECC)",
            measured=laser_share,
            reference=PAPER_LASER_SHARE_UNCODED,
            unit="",
        ),
        Comparison(
            quantity="total interconnect power saving",
            measured=saving,
            reference=PAPER_TOTAL_SAVING_W,
            unit="W",
        ),
    ]
    return HeadlineResult(
        target_ber=_TARGET_BER,
        laser_share_uncoded=laser_share,
        power_reduction=power_reduction,
        per_waveguide_power_mw=per_waveguide,
        total_power_w=totals,
        total_saving_w=saving,
        ber_1e12_feasible=feasibility,
        comparisons=comparisons,
    )
# ------------------------------------------------------------------ grid API
sweep_shards = single_sweep_shards("headline")


def run_sweep_shard(params, config):
    """Worker: recompute the headline claims; returns the rendered payload."""
    result = run_headline(config)
    rows = [
        {"quantity": c.quantity, "measured": c.measured, "paper": c.reference, "unit": c.unit}
        for c in result.comparisons
    ]
    return {"text": result.render_text(), "rows": rows}
