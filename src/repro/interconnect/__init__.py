"""Interconnect-level architecture: topology, channels and arbitration.

The paper's Figure 2-a shows a 3D-IC whose optical layer implements one MWSR
channel per reader ONI: every other ONI owns a writer on that channel, and a
channel carries ``NW`` wavelengths over (in the evaluation) 16 parallel
waveguides.  This package models that structure:

* :mod:`repro.interconnect.topology` — ONI placement on the optical layer
  and the waveguide distances between them.
* :mod:`repro.interconnect.mwsr` — a single MWSR channel: its writers, its
  reader, per-writer path losses and worst-case laser requirements.
* :mod:`repro.interconnect.arbitration` — token-based arbitration of the
  multiple writers of a channel.

Whole-interconnect power figures are aggregated by
:mod:`repro.power.interconnect`.
"""

from .topology import RingTopology
from .mwsr import MWSRChannel, WriterPath
from .arbitration import TokenArbiter

__all__ = [
    "RingTopology",
    "MWSRChannel",
    "WriterPath",
    "TokenArbiter",
]
