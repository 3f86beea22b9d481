"""Wavelength-division-multiplexing grid.

The paper's MWSR channel carries 16 wavelengths per waveguide.  The grid
object owns the channel wavelengths and spacing and provides the detuning
queries the crosstalk model needs (how far is channel j's carrier from
channel i's drop ring resonance?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..exceptions import ConfigurationError

__all__ = ["WDMGrid"]


@dataclass(frozen=True)
class WDMGrid:
    """Uniformly spaced WDM wavelength grid."""

    num_channels: int = 16
    center_wavelength_m: float = 1550e-9
    channel_spacing_m: float = 0.8e-9

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise ConfigurationError("a WDM grid needs at least one channel")
        if self.center_wavelength_m <= 0:
            raise ConfigurationError("centre wavelength must be positive")
        if self.channel_spacing_m <= 0:
            raise ConfigurationError("channel spacing must be positive")

    @property
    def _first_wavelength_m(self) -> float:
        return self.center_wavelength_m - (self.num_channels - 1) / 2.0 * self.channel_spacing_m

    @property
    def wavelengths_m(self) -> Tuple[float, ...]:
        """Channel wavelengths, lowest index = shortest wavelength."""
        first = self._first_wavelength_m
        return tuple(first + i * self.channel_spacing_m for i in range(self.num_channels))

    def wavelength(self, channel_index: int) -> float:
        """Wavelength of one channel."""
        if not 0 <= channel_index < self.num_channels:
            raise ConfigurationError(
                f"channel index {channel_index} outside [0, {self.num_channels - 1}]"
            )
        return self._first_wavelength_m + channel_index * self.channel_spacing_m

    @classmethod
    def from_config(cls, config) -> "WDMGrid":
        """Build the grid from a :class:`repro.config.PaperConfig`."""
        return cls(
            num_channels=config.num_wavelengths,
            center_wavelength_m=config.center_wavelength_m,
            channel_spacing_m=config.channel_spacing_m,
        )
