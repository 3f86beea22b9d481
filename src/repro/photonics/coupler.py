"""Multimode-interference (MMI) coupler / multiplexer model.

The MWSR channel combines the un-modulated carriers of the NW laser sources
onto the shared waveguide with an MMI coupler (Mandorlo et al.).  For the
power budget only its insertion loss matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["MMICoupler"]


@dataclass(frozen=True)
class MMICoupler:
    """Insertion-loss model of the laser multiplexer."""

    insertion_loss_db: float = 1.0

    def __post_init__(self) -> None:
        if self.insertion_loss_db < 0:
            raise ConfigurationError("insertion loss cannot be negative")

    @classmethod
    def from_config(cls, config) -> "MMICoupler":
        """Build the coupler from a :class:`repro.config.PaperConfig`."""
        return cls(insertion_loss_db=config.mux_insertion_loss_db)
