"""Experiment ``figure4``: laser electrical power vs emitted optical power.

Figure 4 plots ``P_laser`` against ``OP_laser`` at 25% chip activity: linear
below roughly 500 uW and super-linear above because the laser efficiency
collapses with temperature.  The experiment sweeps OP_laser over the
figure's 0-800 uW range, records the curve, and checks the qualitative
properties the paper relies on (approximate linearity at low power, convex
super-linear growth at high power, 700 uW feasibility limit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_CONFIG, PaperConfig
from .gridlib import single_merge_sweep as merge_sweep, single_sweep_shards
from ..photonics.laser import VCSELModel

__all__ = ["Figure4Result", "run_figure4", "sweep_shards", "run_sweep_shard", "merge_sweep"]


@dataclass
class Figure4Result:
    """The P_laser(OP_laser) curve at the configured chip activity."""

    optical_power_uw: np.ndarray
    laser_power_mw: np.ndarray
    max_deliverable_uw: float
    low_power_efficiency: float

    @property
    def linearity_error_below_500uw(self) -> float:
        """Maximum relative deviation from a straight line below 500 uW.

        The paper describes the curve as linear in that range; this metric
        quantifies how closely the model follows that description.
        """
        mask = (self.optical_power_uw > 0) & (self.optical_power_uw <= 500.0)
        op = self.optical_power_uw[mask]
        p = self.laser_power_mw[mask]
        slope = p[-1] / op[-1]
        linear = slope * op
        return float(np.max(np.abs(p - linear) / np.maximum(linear, 1e-12)))

    def render_text(self) -> str:
        """Short text summary of the curve."""
        idx_500 = int(np.argmin(np.abs(self.optical_power_uw - 500.0)))
        idx_700 = int(np.argmin(np.abs(self.optical_power_uw - 700.0)))
        return "\n".join(
            [
                "Figure 4 - P_laser vs OP_laser (25% activity)",
                f"low-power wall-plug efficiency: {self.low_power_efficiency * 100:.1f}%",
                f"P_laser at 500 uW: {self.laser_power_mw[idx_500]:.2f} mW",
                f"P_laser at 700 uW: {self.laser_power_mw[idx_700]:.2f} mW",
                f"maximum deliverable optical power: {self.max_deliverable_uw:.0f} uW",
                f"deviation from linearity below 500 uW: {self.linearity_error_below_500uw * 100:.1f}%",
            ]
        )


def run_figure4(config: PaperConfig = DEFAULT_CONFIG) -> Figure4Result:
    """Sweep OP_laser from 0 to 800 uW and record the electrical laser power curve."""
    laser = VCSELModel.from_config(config)
    optical_powers_w = np.linspace(0.0, 800.0 * 1e-6, 161)
    electrical_w = laser.electrical_power_curve(
        optical_powers_w, activity=config.chip_activity
    )
    return Figure4Result(
        optical_power_uw=optical_powers_w * 1e6,
        laser_power_mw=electrical_w * 1e3,
        max_deliverable_uw=laser.max_output_power_w * 1e6,
        low_power_efficiency=laser.efficiency(1e-6, activity=config.chip_activity),
    )
# ------------------------------------------------------------------ grid API
sweep_shards = single_sweep_shards("figure4")


def run_sweep_shard(params, config):
    """Worker: sweep the laser model; returns the rendered payload."""
    result = run_figure4(config)
    rows = [
        {"op_laser_uw": op, "p_laser_mw": p}
        for op, p in zip(result.optical_power_uw, result.laser_power_mw)
    ]
    return {"text": result.render_text(), "rows": rows}
