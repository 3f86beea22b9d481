"""Optical power budget of an MWSR channel (worst-case writer to reader).

The paper estimates the minimum laser output power with "the transmission
model proposed in [8]" (Li et al.), which tracks the signal through every
micro-ring and the waveguide and evaluates the worst-case crosstalk from the
spectral distance between signals and ring resonances.  This module is our
reproduction of that substrate: a per-element loss budget built from the
device models of :mod:`repro.photonics`.

For a signal emitted on wavelength ``lambda_i`` by the *worst-case* writer
(the one farthest from the reader), the path is:

1. laser → MMI multiplexer (insertion loss),
2. propagation along the full waveguide length,
3. the writer's own modulator bank: one active modulator (pass-state
   insertion loss) plus ``NW - 1`` parked rings (through loss each),
4. the modulator banks of every intermediate writer: ``NW`` parked rings
   each,
5. the reader bank: ``NW - 1`` other drop rings crossed (through loss) plus
   the drop loss of the signal's own ring,
6. the finite extinction ratio of OOK modulation, accounted as an eye-
   opening penalty ``1 - 1/ER`` on the useful signal power.

The worst-case crosstalk is the Lorentzian leakage of all other channels
through the victim's drop ring (see
:class:`repro.photonics.crosstalk.CrosstalkModel`), expressed as a ratio of
the per-channel received power so it scales with the laser operating point
as in Eq. 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..photonics.coupler import MMICoupler
from ..photonics.crosstalk import CrosstalkModel
from ..photonics.waveguide import Waveguide
from ..units import db_loss_to_transmission, db_to_linear

__all__ = ["LinkPowerBudget"]


@dataclass(frozen=True)
class LinkPowerBudget:
    """Worst-case signal-path transmission and crosstalk of one MWSR channel."""

    config: PaperConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    # ------------------------------------------------------------------ components
    @property
    def mux_loss_db(self) -> float:
        """Insertion loss of the laser multiplexer."""
        return MMICoupler.from_config(self.config).insertion_loss_db

    @property
    def waveguide_loss_db(self) -> float:
        """Propagation loss over the worst-case waveguide length."""
        return Waveguide(
            length_m=self.config.waveguide_length_m,
            propagation_loss_db_per_cm=self.config.waveguide_loss_db_per_cm,
        ).total_loss_db

    @property
    def own_writer_loss_db(self) -> float:
        """Loss inside the transmitting writer's modulator bank.

        One active modulator in its pass ('1') state plus ``NW - 1`` parked
        rings tuned to other wavelengths.
        """
        parked = (self.config.num_wavelengths - 1) * self.config.ring_through_loss_db
        return parked + self.config.modulator_insertion_loss_db

    @property
    def intermediate_writers_loss_db(self) -> float:
        """Loss crossing every intermediate writer's parked modulator bank."""
        rings_crossed = (
            self.config.num_intermediate_writers * self.config.num_wavelengths
        )
        return rings_crossed * self.config.ring_through_loss_db

    @property
    def reader_loss_db(self) -> float:
        """Loss inside the reader: other drop rings crossed plus the drop itself."""
        parked = (self.config.num_wavelengths - 1) * self.config.ring_through_loss_db
        return parked + self.config.ring_drop_loss_db

    @property
    def extinction_ratio_penalty_db(self) -> float:
        """Eye-opening penalty of the finite extinction ratio.

        With extinction ratio ER (linear) the '0' level carries ``P1 / ER``,
        so the usable excursion is ``P1 (1 - 1/ER)``.
        """
        er = db_to_linear(self.config.extinction_ratio_db)
        usable_fraction = 1.0 - 1.0 / er
        if usable_fraction <= 0:
            raise ConfigurationError("extinction ratio too small: no eye opening")
        return -10.0 * math.log10(usable_fraction)

    # ------------------------------------------------------------------ totals
    @property
    def signal_path_loss_db(self) -> float:
        """Total worst-case loss from the laser to the photodetector, in dB."""
        return (
            self.mux_loss_db
            + self.waveguide_loss_db
            + self.own_writer_loss_db
            + self.intermediate_writers_loss_db
            + self.reader_loss_db
            + self.extinction_ratio_penalty_db
        )

    @property
    def signal_transmission(self) -> float:
        """Linear worst-case transmission from laser output to useful signal."""
        return db_loss_to_transmission(self.signal_path_loss_db)

    @property
    def crosstalk_ratio(self) -> float:
        """Worst-case crosstalk power divided by the per-channel received power."""
        return CrosstalkModel.from_config(self.config).worst_case_ratio()

    def breakdown(self) -> dict[str, float]:
        """Per-element loss contributions in dB, for reports and tests."""
        return {
            "mux_db": self.mux_loss_db,
            "waveguide_db": self.waveguide_loss_db,
            "own_writer_db": self.own_writer_loss_db,
            "intermediate_writers_db": self.intermediate_writers_loss_db,
            "reader_db": self.reader_loss_db,
            "extinction_ratio_penalty_db": self.extinction_ratio_penalty_db,
            "total_db": self.signal_path_loss_db,
        }

    # ------------------------------------------------------------------ conversions
    def received_signal_power(self, laser_output_power_w: float) -> float:
        """Useful signal power at the photodetector for a laser output power."""
        if laser_output_power_w < 0:
            raise ConfigurationError("laser output power cannot be negative")
        return laser_output_power_w * self.signal_transmission

    def received_crosstalk_power(self, laser_output_power_w: float) -> float:
        """Worst-case crosstalk power at the photodetector for a laser power.

        All channels are assumed to run at the same per-wavelength laser
        power (the paper uses a single control for all lasers of a channel),
        so the crosstalk scales with the same operating point.
        """
        return self.received_signal_power(laser_output_power_w) * self.crosstalk_ratio
