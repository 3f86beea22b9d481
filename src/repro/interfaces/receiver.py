"""Receiver-side electrical interface (paper Figure 2.d, Table I bottom half).

The receiver deserialises the photodetector bit stream at the modulation
rate, decodes it on the path matching the transmitter's configuration
(direct, H(7,4) bank or H(71,64) decoder) and multiplexes the decoded word
back onto the 64-bit IP bus.  Mirroring the transmitter, only the selected
path consumes dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..exceptions import ConfigurationError
from .blocks import (
    HardwareBlock,
    InterfaceAssembly,
    deserializer_block,
    hamming_codec_block,
    mux_block,
)
from .techlib import FDSOI_28NM, TechnologyLibrary
from .transmitter import H71_MODE, H74_MODE, UNCODED_MODE

__all__ = ["ReceiverInterface"]


@dataclass
class ReceiverInterface(InterfaceAssembly):
    """An assembly of receiver blocks with per-mode activity."""

    name: str = "receiver"

    # ------------------------------------------------------------------ factories
    @classmethod
    def paper_default(cls, tech: TechnologyLibrary = FDSOI_28NM) -> "ReceiverInterface":
        """The exact receiver the paper synthesised (Table I, bottom half)."""
        blocks = (
            HardwareBlock(tech.block("rx/mux_64bit_3to1"), (UNCODED_MODE, H74_MODE, H71_MODE), always_on=True),
            HardwareBlock(tech.block("rx/h74_decoders_x16"), (H74_MODE,)),
            HardwareBlock(tech.block("rx/h71_64_decoder"), (H71_MODE,)),
            HardwareBlock(tech.block("rx/deser_112bit_h74"), (H74_MODE,)),
            HardwareBlock(tech.block("rx/deser_71bit_h71_64"), (H71_MODE,)),
            HardwareBlock(tech.block("rx/deser_64bit_uncoded"), (UNCODED_MODE,)),
        )
        return cls(blocks=blocks, name="receiver (Table I)")

    @classmethod
    def from_codes(
        cls,
        codes: Iterable,
        *,
        ip_bus_width_bits: int = 64,
        ip_clock_hz: float = 1e9,
        modulation_rate_hz: float = 10e9,
        tech: TechnologyLibrary = FDSOI_28NM,
    ) -> "ReceiverInterface":
        """Build a receiver for an arbitrary set of coding schemes."""
        codes = list(codes)
        mode_names = [getattr(code, "name", str(code)) for code in codes]
        block_list: list[HardwareBlock] = [
            HardwareBlock(
                mux_block(ip_bus_width_bits, num_inputs=len(codes) + 1, tech=tech),
                tuple(mode_names) + (UNCODED_MODE,),
                always_on=True,
            ),
            HardwareBlock(
                deserializer_block(
                    ip_bus_width_bits, modulation_rate_hz=modulation_rate_hz, tech=tech
                ),
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
                        role="decoder",
                        num_instances=instances,
                        ip_clock_hz=ip_clock_hz,
                        tech=tech,
                    ),
                    (mode,),
                )
            )
            block_list.append(
                HardwareBlock(
                    deserializer_block(
                        instances * code.n, modulation_rate_hz=modulation_rate_hz, tech=tech
                    ),
                    (mode,),
                )
            )
        return cls(blocks=tuple(block_list), name="receiver (parametric)")
