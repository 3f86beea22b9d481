"""MWSR link-level modelling: power budget and operating-point design.

This package glues the photonic device models to the coding/BER mathematics:

* :mod:`repro.link.power_budget` — the optical loss budget from the laser to
  the worst-case reader photodetector and the worst-case crosstalk ratio
  (our stand-in for the transmission model of Li et al. [8]).
* :mod:`repro.link.design` — the operating-point solver used by Figures 5
  and 6: given an ECC and a target BER, compute the required laser output
  power and electrical laser power.  It inverts the paper's Eq. 4 (received
  power, crosstalk and dark current to SNR) through
  :meth:`repro.photonics.photodetector.Photodetector.required_signal_power`.
"""

from .power_budget import LinkPowerBudget
from .design import LinkDesignPoint, OpticalLinkDesigner

__all__ = [
    "LinkPowerBudget",
    "LinkDesignPoint",
    "OpticalLinkDesigner",
]
