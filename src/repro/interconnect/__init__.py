"""Interconnect-level architecture: topology, channels and arbitration.

The paper's Figure 2-a shows a 3D-IC whose optical layer implements one MWSR
channel per reader ONI: every other ONI owns a writer on that channel, and a
channel carries ``NW`` wavelengths over (in the evaluation) 16 parallel
waveguides.  This package models that structure:

* :mod:`repro.interconnect.topology` — the ring of ONIs on the optical layer.
* :mod:`repro.interconnect.mwsr` — a single MWSR channel: its reader and the
  writers that share it.
* :mod:`repro.interconnect.arbitration` — token-based arbitration of the
  multiple writers of a channel.

The worst-case loss budget the laser is sized for lives in
:mod:`repro.link.power_budget`; whole-interconnect power figures are
aggregated by :mod:`repro.power.interconnect`.
"""

from .topology import RingTopology
from .mwsr import MWSRChannel
from .arbitration import TokenArbiter

__all__ = [
    "RingTopology",
    "MWSRChannel",
    "TokenArbiter",
]
