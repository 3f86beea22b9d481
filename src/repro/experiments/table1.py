"""Experiment ``table1``: synthesis results of the TX/RX interfaces (Table I).

Regenerates the paper's Table I from the technology library and, optionally,
from the parametric block estimators, then compares per-mode totals and
areas against the published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..config import DEFAULT_CONFIG, PaperConfig
from ..interfaces.synthesis import PAPER_MODES, SynthesisReport, synthesize_interfaces
from .gridlib import single_merge_sweep as merge_sweep, single_sweep_shards
from .paperdata import Comparison, PAPER_TABLE1_AREA_UM2, PAPER_TABLE1_TOTALS_UW

__all__ = ["Table1Result", "run_table1", "sweep_shards", "run_sweep_shard", "merge_sweep"]


@dataclass
class Table1Result:
    """Outcome of the Table I reproduction."""

    report: SynthesisReport
    comparisons: List[Comparison] = field(default_factory=list)

    def render_text(self) -> str:
        """Text rendering: the regenerated table followed by the comparison."""
        lines = [
            "Table I - synthesis results (28 nm FDSOI, Ndata=64, FIP=1 GHz, Fmod=10 Gb/s)",
            self.report.render_text(),
            "",
            "Comparison against the paper's totals:",
        ]
        lines.extend(comparison.render() for comparison in self.comparisons)
        return "\n".join(lines)


def run_table1(config: PaperConfig = DEFAULT_CONFIG) -> Table1Result:
    """Regenerate Table I and compare its totals with the paper."""
    report = synthesize_interfaces(config=config, parametric=False)
    parametric = synthesize_interfaces(config=config, parametric=True)

    comparisons: List[Comparison] = []
    for (side, mode), reference in PAPER_TABLE1_TOTALS_UW.items():
        measured = report.mode_totals(side, mode).total_power_uw
        comparisons.append(
            Comparison(
                quantity=f"{side} total power [{mode}]",
                measured=measured,
                reference=reference,
                unit="uW",
            )
        )
    comparisons.append(
        Comparison(
            quantity="transmitter area",
            measured=report.transmitter_area_um2,
            reference=PAPER_TABLE1_AREA_UM2["transmitter"],
            unit="um2",
        )
    )
    comparisons.append(
        Comparison(
            quantity="receiver area",
            measured=report.receiver_area_um2,
            reference=PAPER_TABLE1_AREA_UM2["receiver"],
            unit="um2",
        )
    )
    # Cross-check: the parametric estimators should stay in the same ballpark
    # as the library for the modes the paper synthesised.
    for mode in PAPER_MODES:
        measured = parametric.mode_totals("transmitter", mode).total_power_uw
        reference = report.mode_totals("transmitter", mode).total_power_uw
        comparisons.append(
            Comparison(
                quantity=f"parametric transmitter power [{mode}]",
                measured=measured,
                reference=reference,
                unit="uW",
            )
        )
    return Table1Result(report=report, comparisons=comparisons)
# ------------------------------------------------------------------ grid API
sweep_shards = single_sweep_shards("table1")


def run_sweep_shard(params, config):
    """Worker: regenerate Table I; returns the rendered payload."""
    result = run_table1(config)
    return {"text": result.render_text(), "rows": result.report.to_rows()}
