"""Per-wavelength channel power breakdown (paper Section IV-E, Figure 6a).

``P_channel = P_ENC+DEC + P_MR + P_laser`` evaluated per wavelength:

* ``P_laser`` comes from the link operating point (laser electrical power
  for the OP_laser required by the selected code and BER target),
* ``P_MR`` is the modulator driver power (1.36 mW per wavelength),
* ``P_ENC+DEC`` is the interface power of the active mode divided by the
  number of wavelengths of the channel (the Table I interfaces serve the
  whole 16-wavelength channel).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..interfaces.synthesis import SynthesisReport, synthesize_interfaces
from ..link.design import OpticalLinkDesigner

__all__ = ["ChannelPowerBreakdown", "channel_power_breakdown"]


@dataclass(frozen=True)
class ChannelPowerBreakdown:
    """Power contributions of one wavelength of an MWSR channel, in watts."""

    code_name: str
    target_ber: float
    laser_power_w: float
    modulator_power_w: float
    interface_power_w: float
    feasible: bool
    communication_time: float
    code_rate: float

    @property
    def total_power_w(self) -> float:
        """P_channel per wavelength."""
        return self.laser_power_w + self.modulator_power_w + self.interface_power_w

    @property
    def total_power_mw(self) -> float:
        """P_channel per wavelength in milliwatts (Figure 6a y-axis)."""
        return self.total_power_w * 1e3

    @property
    def laser_share(self) -> float:
        """Fraction of the channel power drawn by the laser (0.92 w/o ECC)."""
        total = self.total_power_w
        if total <= 0:
            raise ConfigurationError("total channel power must be positive")
        return self.laser_power_w / total

    def as_dict(self) -> dict[str, float]:
        """Breakdown as a plain dictionary (report/CSV friendly)."""
        return {
            "code": self.code_name,
            "target_ber": self.target_ber,
            "laser_mw": self.laser_power_w * 1e3,
            "modulator_mw": self.modulator_power_w * 1e3,
            "interface_mw": self.interface_power_w * 1e3,
            "total_mw": self.total_power_mw,
            "laser_share": self.laser_share,
            "communication_time": self.communication_time,
            "feasible": float(self.feasible),
        }


def channel_power_breakdown(
    code,
    target_ber: float,
    *,
    config: PaperConfig = DEFAULT_CONFIG,
    designer: OpticalLinkDesigner | None = None,
    synthesis: SynthesisReport | None = None,
) -> ChannelPowerBreakdown:
    """Compute the per-wavelength power breakdown for one code and BER target.

    A pre-computed designer or synthesis report can be passed in to avoid
    recomputation inside sweeps.
    """
    if designer is None:
        designer = OpticalLinkDesigner(config=config)
    if synthesis is None:
        synthesis = synthesize_interfaces(config=config)
    design_point = designer.design_point(code, target_ber)

    mode = getattr(code, "name", str(code))
    try:
        interface_power_w = synthesis.interface_power_w(mode)
    except KeyError:
        # Codes outside the Table I set are charged the uncoded path.
        interface_power_w = synthesis.interface_power_w("w/o ECC")
    per_wavelength_interface = interface_power_w / config.num_wavelengths

    return ChannelPowerBreakdown(
        code_name=design_point.code_name,
        target_ber=design_point.target_ber,
        laser_power_w=design_point.laser_electrical_power_w,
        modulator_power_w=config.modulator_power_w,
        interface_power_w=per_wavelength_interface,
        feasible=design_point.feasible,
        communication_time=design_point.communication_time,
        code_rate=design_point.code_rate,
    )
