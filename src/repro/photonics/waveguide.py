"""Silicon waveguide propagation model.

The paper uses the low-loss silicon waveguides of Dong et al. (0.274 dB/cm)
over a worst-case 6 cm path; its budget has no bend or crossing losses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["Waveguide"]


@dataclass(frozen=True)
class Waveguide:
    """Straight-waveguide propagation loss model."""

    length_m: float = 0.06
    propagation_loss_db_per_cm: float = 0.274

    def __post_init__(self) -> None:
        if self.length_m < 0:
            raise ConfigurationError("waveguide length cannot be negative")
        if self.propagation_loss_db_per_cm < 0:
            raise ConfigurationError("propagation loss cannot be negative")

    @property
    def total_loss_db(self) -> float:
        """Propagation loss over the full length, in dB."""
        return self.propagation_loss_db_per_cm * self.length_m * 100.0

