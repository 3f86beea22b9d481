"""Synthesis-style reporting of the interfaces (reproduces Table I).

:func:`synthesize_interfaces` assembles the paper's transmitter and receiver
(either from the Table I library or from the parametric estimators) and
produces a :class:`SynthesisReport` that can be rendered as the same table
the paper prints: per-block area, critical path, static and dynamic power,
plus per-mode totals and slack against the target clock periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..config import DEFAULT_CONFIG, PaperConfig
from .blocks import H71_MODE, H74_MODE, UNCODED_MODE, InterfaceAssembly
from .techlib import BlockCharacterisation

__all__ = ["SynthesisReport", "synthesize_interfaces", "ModeTotals", "PAPER_MODES"]

PAPER_MODES = (H74_MODE, H71_MODE, UNCODED_MODE)
"""Communication modes reported in Table I, in the paper's row order."""


@dataclass(frozen=True)
class ModeTotals:
    """Aggregated figures for one communication mode of one interface side."""

    mode: str
    dynamic_power_uw: float
    total_power_uw: float
    critical_path_ps: float


@dataclass
class SynthesisReport:
    """Full synthesis report of the transmitter/receiver pair."""

    config: PaperConfig
    transmitter_blocks: Dict[str, BlockCharacterisation]
    receiver_blocks: Dict[str, BlockCharacterisation]
    transmitter_area_um2: float
    receiver_area_um2: float
    transmitter_modes: List[ModeTotals] = field(default_factory=list)
    receiver_modes: List[ModeTotals] = field(default_factory=list)

    # ------------------------------------------------------------------ queries
    def mode_totals(self, side: str, mode: str) -> ModeTotals:
        """Totals for one side ('transmitter'/'receiver') and mode."""
        entries = self.transmitter_modes if side == "transmitter" else self.receiver_modes
        for entry in entries:
            if entry.mode == mode:
                return entry
        raise KeyError(f"mode {mode!r} not present on side {side!r}")

    def interface_power_w(self, mode: str) -> float:
        """Total transmitter + receiver power for one mode, in watts."""
        tx = self.mode_totals("transmitter", mode).total_power_uw
        rx = self.mode_totals("receiver", mode).total_power_uw
        return (tx + rx) * 1e-6

    # ------------------------------------------------------------------ rendering
    def to_rows(self) -> List[dict]:
        """Flatten the report into row dictionaries (one per block and total)."""
        rows: List[dict] = []
        for side, blocks, area, modes in (
            ("transmitter", self.transmitter_blocks, self.transmitter_area_um2, self.transmitter_modes),
            ("receiver", self.receiver_blocks, self.receiver_area_um2, self.receiver_modes),
        ):
            for name, block in blocks.items():
                rows.append(
                    {
                        "side": side,
                        "block": name,
                        "area_um2": block.area_um2,
                        "critical_path_ps": block.critical_path_ps,
                        "static_power_nw": block.static_power_nw,
                        "dynamic_power_uw": block.dynamic_power_uw,
                        "total_power_uw": block.total_power_uw,
                    }
                )
            for totals in modes:
                rows.append(
                    {
                        "side": side,
                        "block": f"Total, {totals.mode} com.",
                        "area_um2": area,
                        "critical_path_ps": totals.critical_path_ps,
                        "static_power_nw": float("nan"),
                        "dynamic_power_uw": totals.dynamic_power_uw,
                        "total_power_uw": totals.total_power_uw,
                    }
                )
        return rows

    def render_text(self) -> str:
        """Render the report as a fixed-width text table (Table I style)."""
        header = (
            f"{'side':<12} {'block':<28} {'area um2':>10} {'CP ps':>8} "
            f"{'static nW':>10} {'dyn uW':>8} {'total uW':>9}"
        )
        lines = [header, "-" * len(header)]
        for row in self.to_rows():
            static = row["static_power_nw"]
            static_text = f"{static:10.1f}" if static == static else " " * 10
            lines.append(
                f"{row['side']:<12} {row['block']:<28} {row['area_um2']:10.0f} "
                f"{row['critical_path_ps']:8.0f} {static_text} "
                f"{row['dynamic_power_uw']:8.2f} {row['total_power_uw']:9.2f}"
            )
        return "\n".join(lines)


def synthesize_interfaces(
    *,
    config: PaperConfig = DEFAULT_CONFIG,
    parametric: bool = False,
) -> SynthesisReport:
    """Build the transmitter/receiver pair and produce the Table I report.

    With ``parametric=False`` (default) the blocks come straight from the
    Table I characterisation; with ``parametric=True`` they are re-estimated
    from the calibrated per-gate constants, which is how users explore other
    codes or bus widths.
    """
    if parametric:
        from ..coding.hamming import HammingCode, ShortenedHammingCode

        codes = [HammingCode(3), ShortenedHammingCode(config.ip_bus_width_bits)]
        modes = [codes[0].name, codes[1].name, UNCODED_MODE]
    else:
        modes = list(PAPER_MODES)
    fields: dict = {}
    for side in ("transmitter", "receiver"):
        if parametric:
            interface = InterfaceAssembly.from_codes(
                side,
                codes,
                ip_bus_width_bits=config.ip_bus_width_bits,
                ip_clock_hz=config.ip_clock_hz,
                modulation_rate_hz=config.modulation_rate_hz,
            )
        else:
            interface = InterfaceAssembly.paper_default(side)
        fields[f"{side}_blocks"] = interface.as_table()
        fields[f"{side}_area_um2"] = interface.total_area_um2
        fields[f"{side}_modes"] = [
            ModeTotals(
                mode=mode,
                dynamic_power_uw=interface.dynamic_power_uw(mode),
                total_power_uw=interface.total_power_uw(mode),
                critical_path_ps=interface.critical_path_ps(mode),
            )
            for mode in modes
        ]
    return SynthesisReport(config=config, **fields)
