"""Electrical/optical interface models (paper Section IV-C and Table I).

The transmitter interface takes the 64-bit, 1 GHz IP bus, optionally encodes
it (sixteen H(7,4) coders or one H(71,64) coder), multiplexes the selected
path and serialises it at the 10 Gb/s modulation rate.  The receiver mirrors
the structure with a deserialiser, decoders and an output mux.  The paper
synthesised these interfaces in 28 nm FDSOI; Table I reports area, critical
path and power per block.  One :class:`InterfaceAssembly` models either
side: ``paper_default(side)`` and ``from_codes(side, codes)`` pick the
side's blocks.

We reproduce that with:

* :mod:`repro.interfaces.techlib` — the calibrated 28 nm FDSOI block
  library holding the Table I characterisation.
* :mod:`repro.interfaces.blocks` — parametric area/power/timing models of
  muxes, Hamming codecs and SER/DES blocks that interpolate the library for
  other code sizes, bus widths and frequencies, the communication-mode
  names, and the interface assembly that aggregates either side's blocks
  per communication mode.
* :mod:`repro.interfaces.synthesis` — a Table-I-style synthesis report.
"""

from .techlib import TechnologyLibrary, BlockCharacterisation, FDSOI_28NM
from .blocks import (
    HardwareBlock,
    InterfaceAssembly,
    hamming_codec_block,
    mux_block,
    serializer_block,
    deserializer_block,
)
from .synthesis import SynthesisReport, synthesize_interfaces

__all__ = [
    "TechnologyLibrary",
    "BlockCharacterisation",
    "FDSOI_28NM",
    "HardwareBlock",
    "InterfaceAssembly",
    "hamming_codec_block",
    "mux_block",
    "serializer_block",
    "deserializer_block",
    "SynthesisReport",
    "synthesize_interfaces",
]
