"""Inter-channel crosstalk model for the MWSR reader.

The paper takes its crosstalk estimate from the transmission model of Li et
al. [8], which accounts for "the distance between signal and MR resonant
wavelengths".  We reproduce that mechanism with the Lorentzian ring model:
the drop ring of channel ``i`` at the reader is resonant at wavelength
``lambda_i`` but still couples a small fraction of every other channel
``j != i`` — given by the Lorentzian roll-off evaluated at the grid
detuning — onto photodetector ``i``.  The worst case assumes every other
channel carries a '1' at full power simultaneously, which is what Eq. 4's
``OPcrosstalk`` represents.

Crosstalk therefore scales with the per-channel optical power: the model
returns a *crosstalk ratio* (crosstalk power divided by per-channel received
power) so the link solver can apply it at any laser operating point.

The worst-case ratio is a pure function of the (frozen, hashable) model and
the link solver asks for it twice per operating point, so it is memoized per
model; :meth:`CrosstalkModel.crosstalk_ratio` stays the unmemoized reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .microring import MicroringResonator
from .wdm import WDMGrid

__all__ = ["CrosstalkModel"]


@dataclass(frozen=True)
class CrosstalkModel:
    """Worst-case adjacent/non-adjacent channel crosstalk at the reader."""

    grid: WDMGrid
    drop_ring: MicroringResonator

    def __post_init__(self) -> None:
        if self.grid.num_channels < 1:
            raise ConfigurationError("crosstalk model needs at least one channel")

    def crosstalk_ratio(self, victim_channel: int) -> float:
        """Total worst-case crosstalk ratio seen by one channel's detector.

        Defined as ``sum_{j != i} Tdrop(lambda_j) / Tdrop(lambda_i)``: the
        fraction of each aggressor's received power that leaks through the
        victim's drop ring, normalised to the victim's own drop efficiency so
        the ratio can be multiplied by the victim's received signal power.
        """
        victim_wavelength = self.grid.wavelength(victim_channel)
        ring = self.drop_ring.detuned_copy(victim_wavelength)
        own = ring.drop_transmission(victim_wavelength)
        if own <= 0:
            raise ConfigurationError("victim drop transmission must be positive")
        total = 0.0
        for other in range(self.grid.num_channels):
            if other == victim_channel:
                continue
            total += float(ring.drop_transmission(self.grid.wavelength(other)))
        return total / float(own)

    def worst_case_ratio(self) -> float:
        """Crosstalk ratio of the most-affected channel (a central one)."""
        return _worst_case_ratio(self)

    def crosstalk_power_w(self, victim_channel: int, per_channel_power_w: float) -> float:
        """Absolute crosstalk power for a given per-channel received power."""
        if per_channel_power_w < 0:
            raise ConfigurationError("per-channel power cannot be negative")
        return self.crosstalk_ratio(victim_channel) * per_channel_power_w

    @classmethod
    def from_config(cls, config) -> "CrosstalkModel":
        """Build the model from a :class:`repro.config.PaperConfig`."""
        grid = WDMGrid.from_config(config)
        ring = MicroringResonator(
            resonance_wavelength_m=config.center_wavelength_m,
            quality_factor=config.ring_quality_factor,
            extinction_ratio_db=config.extinction_ratio_db,
            through_loss_db=config.ring_through_loss_db,
            drop_loss_db=config.ring_drop_loss_db,
            drive_power_w=config.modulator_power_w,
        )
        return cls(grid=grid, drop_ring=ring)


@functools.lru_cache(maxsize=64)
def _worst_case_ratio(model: CrosstalkModel) -> float:
    """Memoized :meth:`CrosstalkModel.worst_case_ratio`."""
    return max(model.crosstalk_ratio(channel) for channel in range(model.grid.num_channels))
