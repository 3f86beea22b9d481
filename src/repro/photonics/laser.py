"""Thermally-limited on-chip VCSEL laser model (paper Figure 4).

The paper assumes CMOS-compatible PCM-VCSEL sources whose wall-plug
efficiency degrades strongly with temperature.  Because the laser heats
itself (and sits above an electrical layer whose activity adds a thermal
floor), the electrical power needed to emit a given optical power grows
faster than linearly: Figure 4 shows an approximately linear region below
~500 uW of emitted power and a super-linear ("exponential") region above,
with a hard ceiling of 700 uW deliverable optical power — the reason an
uncoded BER of 1e-12 is unreachable.

The model implemented here captures that behaviour with an exponential
efficiency droop:

``P_laser(OP) = OP / (eta_base * activity_derating * exp(-OP / OP_droop))``

* ``eta_base`` is the cold wall-plug efficiency (paper: "around 5%"; we use
  6% so the BER=1e-11 uncoded operating point lands near the paper's
  14.3 mW),
* ``activity_derating`` lowers the efficiency as the electrical layer
  activity (and hence the ambient temperature under the laser) rises; it is
  normalised to 1.0 at the paper's 25% reference activity,
* ``OP_droop`` sets where the super-linear region starts,
* optical powers above ``max_output_power_w`` (700 uW) are simply not
  deliverable and raise :class:`~repro.exceptions.LaserPowerExceededError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, LaserPowerExceededError

__all__ = ["VCSELModel"]


#: Fractional VCSEL efficiency loss per unit of chip activity above the
#: reference activity (0.3: full activity costs ~22% of the efficiency
#: relative to 25% activity).
ACTIVITY_SENSITIVITY = 0.3


@dataclass(frozen=True)
class VCSELModel:
    """Thermal/efficiency model of one on-chip VCSEL source.

    Parameters
    ----------
    base_efficiency:
        Wall-plug efficiency in the linear (cool) regime at the reference
        activity.
    droop_power_w:
        Optical-power scale of the exponential efficiency droop; smaller
        values make the super-linear region start earlier.
    max_output_power_w:
        Maximum deliverable optical power (700 uW for the paper's PCM-VCSEL).
    reference_activity:
        Chip activity at which ``base_efficiency`` is specified (0.25 in the
        paper).
    """

    base_efficiency: float = 0.06
    droop_power_w: float = 2.0e-3
    max_output_power_w: float = 700e-6
    reference_activity: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.base_efficiency < 1.0:
            raise ConfigurationError("base efficiency must lie in (0, 1)")
        if self.droop_power_w <= 0:
            raise ConfigurationError("droop power must be positive")
        if self.max_output_power_w <= 0:
            raise ConfigurationError("maximum output power must be positive")
        if not 0.0 < self.reference_activity <= 1.0:
            raise ConfigurationError("reference activity must lie in (0, 1]")

    # ------------------------------------------------------------------ efficiency
    def activity_derating(self, activity: float) -> float:
        """Efficiency multiplier for a given electrical-layer activity.

        Normalised to 1.0 at the reference activity; hotter chips (higher
        activity) reduce the laser efficiency linearly with
        :data:`ACTIVITY_SENSITIVITY`.
        """
        if not 0.0 <= activity <= 1.0:
            raise ConfigurationError("activity must lie in [0, 1]")
        derating = 1.0 - ACTIVITY_SENSITIVITY * (activity - self.reference_activity)
        return float(max(derating, 1e-3))

    def efficiency(self, optical_power_w: float, *, activity: float | None = None) -> float:
        """Wall-plug efficiency when emitting ``optical_power_w``."""
        if optical_power_w < 0:
            raise ConfigurationError("optical power cannot be negative")
        act = self.reference_activity if activity is None else activity
        droop = math.exp(-optical_power_w / self.droop_power_w)
        return self.base_efficiency * self.activity_derating(act) * droop

    # ------------------------------------------------------------------ power
    def electrical_power(
        self,
        optical_power_w: float,
        *,
        activity: float | None = None,
        enforce_limit: bool = True,
    ) -> float:
        """Electrical (wall-plug) power needed to emit ``optical_power_w``.

        This is the paper's ``P_laser`` as a function of ``OP_laser``
        (Figure 4).  Zero optical power costs zero (the paper separately
        cites laser shut-down techniques for idle periods [9]).
        """
        if optical_power_w < 0:
            raise ConfigurationError("optical power cannot be negative")
        if optical_power_w == 0.0:
            return 0.0
        if enforce_limit and optical_power_w > self.max_output_power_w:
            raise LaserPowerExceededError(optical_power_w, self.max_output_power_w)
        eta = self.efficiency(optical_power_w, activity=activity)
        return float(optical_power_w / eta)

    def electrical_power_curve(
        self, optical_powers_w: np.ndarray, *, activity: float | None = None
    ) -> np.ndarray:
        """Vectorised ``P_laser(OP_laser)`` without the 700 uW feasibility cut.

        Used to regenerate Figure 4, whose x-axis extends to 800 uW to show
        the infeasible region.
        """
        powers = np.asarray(optical_powers_w, dtype=float)
        return np.array(
            [
                self.electrical_power(op, activity=activity, enforce_limit=False)
                for op in powers
            ]
        )

    def can_deliver(self, optical_power_w: float) -> bool:
        """True when the requested optical power is within the laser rating."""
        return 0.0 <= optical_power_w <= self.max_output_power_w

    @classmethod
    def from_config(cls, config) -> "VCSELModel":
        """Build the model from a :class:`repro.config.PaperConfig`."""
        return cls(
            base_efficiency=config.laser_base_efficiency,
            droop_power_w=config.laser_droop_power_w,
            max_output_power_w=config.laser_max_output_power_w,
            reference_activity=config.chip_activity,
        )
