"""Transmitter-side electrical interface (paper Figure 2.c, Table I top half).

The transmitter receives the 64-bit IP word at FIP, pushes it through the
selected path (direct, H(7,4) bank or H(71,64) coder), multiplexes the paths
and serialises the result at the modulation speed.  Only the selected path
toggles (the paper gates the others with enable signals), so the dynamic
power depends on the active communication mode while the area is the sum of
every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..exceptions import ConfigurationError
from .blocks import (
    HardwareBlock,
    InterfaceAssembly,
    hamming_codec_block,
    mux_block,
    serializer_block,
)
from .techlib import FDSOI_28NM, TechnologyLibrary

__all__ = ["TransmitterInterface"]

#: Communication-mode names used by the paper.
UNCODED_MODE = "w/o ECC"
H74_MODE = "H(7,4)"
H71_MODE = "H(71,64)"


@dataclass
class TransmitterInterface(InterfaceAssembly):
    """An assembly of transmitter blocks with per-mode activity."""

    name: str = "transmitter"

    # ------------------------------------------------------------------ factories
    @classmethod
    def paper_default(cls, tech: TechnologyLibrary = FDSOI_28NM) -> "TransmitterInterface":
        """The exact transmitter the paper synthesised (Table I, top half)."""
        blocks = (
            HardwareBlock(tech.block("tx/mux_1bit_3to1"), (UNCODED_MODE, H74_MODE, H71_MODE), always_on=True),
            HardwareBlock(tech.block("tx/h74_coders_x16"), (H74_MODE,)),
            HardwareBlock(tech.block("tx/h71_64_coder"), (H71_MODE,)),
            HardwareBlock(tech.block("tx/ser_112bit_h74"), (H74_MODE,)),
            HardwareBlock(tech.block("tx/ser_71bit_h71_64"), (H71_MODE,)),
            HardwareBlock(tech.block("tx/ser_64bit_uncoded"), (UNCODED_MODE,)),
        )
        return cls(blocks=blocks, name="transmitter (Table I)")

    @classmethod
    def from_codes(
        cls,
        codes: Iterable,
        *,
        ip_bus_width_bits: int = 64,
        ip_clock_hz: float = 1e9,
        modulation_rate_hz: float = 10e9,
        tech: TechnologyLibrary = FDSOI_28NM,
    ) -> "TransmitterInterface":
        """Build a transmitter for an arbitrary set of coding schemes.

        Each code with redundancy gets a codec bank (``ip_bus_width / k``
        parallel instances) and a serialiser sized to its coded word; the
        uncoded path always exists.  Blocks are estimated parametrically.
        """
        codes = list(codes)
        mode_names = [getattr(code, "name", str(code)) for code in codes]
        block_list: list[HardwareBlock] = [
            HardwareBlock(
                mux_block(1, num_inputs=len(codes) + 1, tech=tech),
                tuple(mode_names) + (UNCODED_MODE,),
                always_on=True,
            ),
            HardwareBlock(
                serializer_block(ip_bus_width_bits, modulation_rate_hz=modulation_rate_hz, tech=tech),
                (UNCODED_MODE,),
            ),
        ]
        for code, mode in zip(codes, mode_names):
            if code.num_parity_bits == 0:
                continue
            if ip_bus_width_bits % code.k != 0:
                raise ConfigurationError(
                    f"bus width {ip_bus_width_bits} is not a multiple of k={code.k} for {mode}"
                )
            instances = ip_bus_width_bits // code.k
            block_list.append(
                HardwareBlock(
                    hamming_codec_block(
                        code,
                        role="encoder",
                        num_instances=instances,
                        ip_clock_hz=ip_clock_hz,
                        tech=tech,
                    ),
                    (mode,),
                )
            )
            block_list.append(
                HardwareBlock(
                    serializer_block(
                        instances * code.n, modulation_rate_hz=modulation_rate_hz, tech=tech
                    ),
                    (mode,),
                )
            )
        return cls(blocks=tuple(block_list), name="transmitter (parametric)")
