"""Photodetector model.

The paper characterises the receiver with just two numbers: a responsivity
of 1 A/W and a dark current of 4 uA that lumps every receiver noise source
(Eq. 4 uses it directly as the noise term of the SNR).  The model keeps that
simplicity: the link solver only needs Eq. 4 inverted, the signal power that
reaches a required SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["Photodetector"]


@dataclass(frozen=True)
class Photodetector:
    """Responsivity / dark-current photodetector model."""

    responsivity_a_per_w: float = 1.0
    dark_current_a: float = 4e-6

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0:
            raise ConfigurationError("responsivity must be positive")
        if self.dark_current_a <= 0:
            raise ConfigurationError("dark current must be positive")

    def required_signal_power(self, snr: float) -> float:
        """Invert Eq. 4 without crosstalk: the OPsignal needed to reach ``snr``.

        The link designer folds the crosstalk into the signal-path gain, so
        the detector only converts the SNR through the dark current.
        """
        if snr < 0:
            raise ConfigurationError("SNR cannot be negative")
        return snr * self.dark_current_a / self.responsivity_a_per_w

    @classmethod
    def from_config(cls, config) -> "Photodetector":
        """Build the detector from a :class:`repro.config.PaperConfig`."""
        return cls(
            responsivity_a_per_w=config.photodetector_responsivity_a_per_w,
            dark_current_a=config.dark_current_a,
        )
