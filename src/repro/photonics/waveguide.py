"""Silicon waveguide propagation model.

The paper uses the low-loss silicon waveguides of Dong et al. (0.274 dB/cm)
over a worst-case 6 cm path.  Bends and crossings are exposed as optional
extra losses so topology studies can account for them, but they default to
zero to match the paper's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["Waveguide"]


@dataclass(frozen=True)
class Waveguide:
    """Straight-waveguide loss model with optional bends and crossings."""

    length_m: float = 0.06
    propagation_loss_db_per_cm: float = 0.274
    bend_loss_db: float = 0.005
    num_bends: int = 0
    crossing_loss_db: float = 0.05
    num_crossings: int = 0

    def __post_init__(self) -> None:
        if self.length_m < 0:
            raise ConfigurationError("waveguide length cannot be negative")
        if self.propagation_loss_db_per_cm < 0:
            raise ConfigurationError("propagation loss cannot be negative")
        if self.num_bends < 0 or self.num_crossings < 0:
            raise ConfigurationError("bend and crossing counts cannot be negative")
        if self.bend_loss_db < 0 or self.crossing_loss_db < 0:
            raise ConfigurationError("bend and crossing losses cannot be negative")

    @property
    def propagation_loss_db(self) -> float:
        """Propagation loss over the full length, in dB."""
        return self.propagation_loss_db_per_cm * self.length_m * 100.0

    @property
    def total_loss_db(self) -> float:
        """Total loss including bends and crossings, in dB."""
        return (
            self.propagation_loss_db
            + self.num_bends * self.bend_loss_db
            + self.num_crossings * self.crossing_loss_db
        )

