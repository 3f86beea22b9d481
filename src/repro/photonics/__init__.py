"""Photonic device models of the nanophotonic interconnect.

The MWSR channel of the paper is built from: on-chip PCM-VCSEL laser
sources, an MMI multiplexer, a silicon waveguide, micro-ring resonator
modulators in the writers, and passive drop rings with photodetectors in the
reader.  Each device gets a small physical model calibrated on the values
the paper quotes (extinction ratio 6.9 dB, waveguide loss 0.274 dB/cm,
responsivity 1 A/W, dark current 4 uA, maximum laser output 700 uW, ~5-6%
laser efficiency at 25% chip activity).
"""

from .microring import MicroringResonator, MicroringState
from .waveguide import Waveguide
from .laser import VCSELModel
from .photodetector import Photodetector
from .coupler import MMICoupler
from .wdm import WDMGrid
from .crosstalk import CrosstalkModel

__all__ = [
    "MicroringResonator",
    "MicroringState",
    "Waveguide",
    "VCSELModel",
    "Photodetector",
    "MMICoupler",
    "WDMGrid",
    "CrosstalkModel",
]
