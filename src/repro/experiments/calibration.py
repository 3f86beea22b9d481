"""Calibration summary of the substituted models.

DESIGN.md documents the substitutions made for the substrates we cannot run
(Li et al.'s MWSR transmission model, the PCM-VCSEL thermal data, the 28 nm
synthesis flow).  This module exposes, in one place, the values those
substitutions produce under the paper's configuration — the end-to-end
signal-path loss, the crosstalk ratio, the laser efficiency — so a user can
audit where the reproduction's operating points come from and re-calibrate
if they have better device data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_CONFIG, PaperConfig
from .gridlib import single_merge_sweep as merge_sweep, single_sweep_shards
from ..link.power_budget import LinkPowerBudget
from ..photonics.laser import VCSELModel

__all__ = ["CalibrationSummary", "run_calibration", "sweep_shards", "run_sweep_shard", "merge_sweep"]


@dataclass
class CalibrationSummary:
    """The calibrated quantities behind the reproduced operating points."""

    signal_path_loss_db: float
    loss_breakdown_db: dict[str, float]
    crosstalk_ratio: float
    laser_base_efficiency: float
    laser_droop_power_mw: float
    laser_max_output_uw: float
    chip_activity: float

    def render_text(self) -> str:
        """Human-readable calibration report."""
        lines = [
            "Calibration of the substituted models (see DESIGN.md)",
            f"worst-case signal-path loss: {self.signal_path_loss_db:.2f} dB",
        ]
        for name, value in self.loss_breakdown_db.items():
            if name == "total_db":
                continue
            lines.append(f"  - {name:<30s} {value:6.3f} dB")
        lines.extend(
            [
                f"worst-case crosstalk ratio: {self.crosstalk_ratio * 100:.2f}% of the received signal",
                f"laser base efficiency: {self.laser_base_efficiency * 100:.1f}%",
                f"laser droop power scale: {self.laser_droop_power_mw:.1f} mW",
                f"laser maximum optical output: {self.laser_max_output_uw:.0f} uW",
                f"chip activity: {self.chip_activity * 100:.0f}%",
            ]
        )
        return "\n".join(lines)


def run_calibration(config: PaperConfig = DEFAULT_CONFIG) -> CalibrationSummary:
    """Collect the calibrated quantities for the given configuration."""
    budget = LinkPowerBudget(config=config)
    laser = VCSELModel.from_config(config)
    return CalibrationSummary(
        signal_path_loss_db=budget.signal_path_loss_db,
        loss_breakdown_db=budget.breakdown(),
        crosstalk_ratio=budget.crosstalk_ratio,
        laser_base_efficiency=laser.base_efficiency,
        laser_droop_power_mw=laser.droop_power_w * 1e3,
        laser_max_output_uw=laser.max_output_power_w * 1e6,
        chip_activity=config.chip_activity,
    )
# ------------------------------------------------------------------ grid API
sweep_shards = single_sweep_shards("calibration")


def run_sweep_shard(params, config):
    """Worker: recompute the calibration summary; returns the rendered payload."""
    result = run_calibration(config)
    rows = [
        {"component": name, "loss_db": value}
        for name, value in result.loss_breakdown_db.items()
    ]
    return {"text": result.render_text(), "rows": rows}
