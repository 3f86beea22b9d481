"""Default configurations reproducing the paper's evaluation setup.

The DAC'17 paper evaluates a single MWSR channel of a nanophotonic
interconnect with the following parameters (Section V):

* 12 optical network interfaces (ONIs) on the channel,
* 16 wavelengths per waveguide,
* 6 cm worst-case waveguide length,
* 0.274 dB/cm waveguide propagation loss [Dong et al.],
* micro-ring extinction ratio of 6.9 dB and modulation power of 1.36 mW per
  wavelength [Rakowski et al.],
* photodetector responsivity of 1 A/W and dark current of 4 uA,
* CMOS-compatible PCM-VCSEL lasers with a maximum deliverable optical power
  of 700 uW and a strongly temperature-dependent efficiency, evaluated at
  25% chip activity,
* electrical interfaces synthesised in 28 nm FDSOI for a 64-bit IP bus at
  1 GHz feeding a 10 Gb/s modulator.

:class:`PaperConfig` bundles those numbers so every experiment module and
example can refer to a single authoritative source of defaults.  All values
are stored in SI units (watts, metres, hertz); helper properties expose the
derived quantities used throughout the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .exceptions import ConfigurationError

__all__ = ["PaperConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class PaperConfig:
    """Evaluation parameters of the DAC'17 study (Section V defaults)."""

    # --- interconnect geometry -------------------------------------------------
    num_onis: int = 12
    """Number of optical network interfaces sharing each MWSR channel."""

    num_wavelengths: int = 16
    """Number of WDM wavelengths carried by each waveguide."""

    num_waveguides_per_channel: int = 16
    """Number of parallel waveguides forming one MWSR channel (Section V-C)."""

    waveguide_length_m: float = 0.06
    """Worst-case optical path length between writer and reader (6 cm)."""

    waveguide_loss_db_per_cm: float = 0.274
    """Propagation loss of the silicon waveguide."""

    # --- micro-ring modulators -------------------------------------------------
    extinction_ratio_db: float = 6.9
    """Modulator extinction ratio between ON and OFF states."""

    modulator_power_w: float = 1.36e-3
    """Electrical power of the ring modulator driver per wavelength (P_MR)."""

    ring_through_loss_db: float = 0.012
    """Insertion loss of one parked (far-detuned) ring on a passing signal."""

    ring_drop_loss_db: float = 1.6
    """Drop loss of the reader ring that routes light to the photodetector."""

    modulator_insertion_loss_db: float = 1.0
    """Pass-state ('1' level) insertion loss of the active writer's modulator."""

    ring_quality_factor: float = 9000.0
    """Loaded quality factor of the micro-ring resonators."""

    mux_insertion_loss_db: float = 1.2
    """Insertion loss of the MMI multiplexer combining the laser outputs."""

    # --- photodetector ----------------------------------------------------------
    photodetector_responsivity_a_per_w: float = 1.0
    """Photodetector responsivity (A/W), paper Section IV-D."""

    dark_current_a: float = 4e-6
    """Photodetector dark current i_n (4 uA), paper Section IV-D."""

    # --- laser ------------------------------------------------------------------
    laser_max_output_power_w: float = 700e-6
    """Maximum optical power the PCM-VCSEL can deliver (700 uW)."""

    laser_base_efficiency: float = 0.065
    """Wall-plug efficiency of the VCSEL in the linear (cool) regime."""

    laser_droop_power_w: float = 2.0e-3
    """Optical power scale of the exponential efficiency droop (thermal)."""

    chip_activity: float = 0.25
    """Electrical-layer activity factor used for the laser thermal state."""

    # --- electrical interface ---------------------------------------------------
    ip_bus_width_bits: int = 64
    """Width of the IP-side data bus (Ndata)."""

    ip_clock_hz: float = 1e9
    """IP-side clock frequency (FIP)."""

    modulation_rate_hz: float = 10e9
    """Optical modulation speed per wavelength (Fmod), bits per second."""

    # --- wavelength grid ---------------------------------------------------------
    center_wavelength_m: float = 1550e-9
    """Centre wavelength of the WDM grid."""

    channel_spacing_m: float = 0.8e-9
    """Wavelength spacing between adjacent WDM channels (~100 GHz grid)."""

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not self.num_onis >= 2:
            raise ConfigurationError("an MWSR channel needs at least two ONIs")
        if not self.num_wavelengths >= 1:
            raise ConfigurationError("at least one wavelength is required")
        if not 0.0 < self.chip_activity <= 1.0:
            raise ConfigurationError("chip activity must lie in (0, 1]")
        if not self.extinction_ratio_db > 0.0:
            raise ConfigurationError("extinction ratio must be positive in dB")
        if not self.laser_max_output_power_w > 0.0:
            raise ConfigurationError("laser maximum output power must be positive")
        if not self.ip_bus_width_bits > 0:
            raise ConfigurationError("IP bus width must be positive")

    # --- derived quantities ------------------------------------------------------
    @property
    def num_intermediate_writers(self) -> int:
        """Writers crossed by the worst-case (farthest) writer's signal."""
        return self.num_onis - 2

    @property
    def ip_bandwidth_bits_per_s(self) -> float:
        """Raw IP-side bandwidth Ndata * FIP."""
        return self.ip_bus_width_bits * self.ip_clock_hz

    @property
    def wavelengths_m(self) -> Tuple[float, ...]:
        """The WDM wavelength grid centred on :attr:`center_wavelength_m`."""
        n = self.num_wavelengths
        first = self.center_wavelength_m - (n - 1) / 2.0 * self.channel_spacing_m
        return tuple(first + i * self.channel_spacing_m for i in range(n))

    def with_overrides(self, **kwargs) -> "PaperConfig":
        """Return a copy of the configuration with selected fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = PaperConfig()
"""Module-level instance of the paper's default configuration."""
