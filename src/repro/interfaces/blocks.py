"""Parametric area/power/timing models of the interface building blocks.

The paper's Table I characterises the exact blocks it needs (H(7,4) x16,
H(71,64), 64/71/112-bit SER/DES, 3-to-1 muxes).  To let users explore other
codes, bus widths and modulation rates, this module provides parametric
estimators calibrated on those entries:

* Hamming encoders are XOR trees (one per parity bit) plus output registers;
* Hamming decoders add syndrome decode and correction logic per codeword bit;
* serialisers / deserialisers are register pipelines whose depth equals the
  block length, clocked at the modulation rate;
* path muxes scale linearly with their width.

Estimates are intentionally simple (linear in gate counts, frequency-scaled
dynamic power) — they are meant to extend Table I by interpolation, not to
replace a synthesis flow.  ``tests/interfaces`` checks that the estimators
land within ~25% of every Table I entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

from ..exceptions import ConfigurationError
from .techlib import BlockCharacterisation, FDSOI_28NM

__all__ = [
    "HardwareBlock",
    "InterfaceAssembly",
    "hamming_codec_block",
    "serializer_block",
    "deserializer_block",
    "mux_block",
    "UNCODED_MODE",
    "H74_MODE",
    "H71_MODE",
]

#: Communication-mode names used by the paper.
UNCODED_MODE = "w/o ECC"
H74_MODE = "H(7,4)"
H71_MODE = "H(71,64)"

#: Table I block names per interface side: the output mux, the H(7,4) and
#: H(71,64) codecs, then the SER/DES of the H(7,4), H(71,64) and uncoded paths.
_TABLE_I_BLOCKS = {
    "transmitter": (
        "tx/mux_1bit_3to1",
        "tx/h74_coders_x16",
        "tx/h71_64_coder",
        "tx/ser_112bit_h74",
        "tx/ser_71bit_h71_64",
        "tx/ser_64bit_uncoded",
    ),
    "receiver": (
        "rx/mux_64bit_3to1",
        "rx/h74_decoders_x16",
        "rx/h71_64_decoder",
        "rx/deser_112bit_h74",
        "rx/deser_71bit_h71_64",
        "rx/deser_64bit_uncoded",
    ),
}
#: The modes that use each Table I block, in the same order.
_TABLE_I_MODES = (
    (UNCODED_MODE, H74_MODE, H71_MODE),
    (H74_MODE,),
    (H71_MODE,),
    (H74_MODE,),
    (H71_MODE,),
    (UNCODED_MODE,),
)


@dataclass(frozen=True)
class HardwareBlock:
    """A block instance: its characterisation plus the mode(s) that use it."""

    characterisation: BlockCharacterisation
    modes: tuple[str, ...]
    always_on: bool = False

    @property
    def name(self) -> str:
        """Block name (taken from the characterisation)."""
        return self.characterisation.name

    def active_in(self, mode: str) -> bool:
        """True when the block consumes dynamic power in the given mode."""
        return self.always_on or mode in self.modes


@dataclass
class InterfaceAssembly:
    """Blocks of one interface side, queried per communication mode.

    The transmitter (paper Figure 2.c, Table I top half) pushes the 64-bit
    IP word through the selected path (direct, H(7,4) bank or H(71,64)
    coder), a 1-bit output mux and a serialiser at the modulation rate; the
    receiver (Figure 2.d, bottom half) mirrors it with deserialisers,
    decoders and a bus-wide mux back onto the IP bus.  Only the selected
    path toggles (the paper gates the others with enable signals), so
    dynamic power depends on the mode while area and static power are the
    sum of every block.
    """

    blocks: tuple[HardwareBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ConfigurationError("an interface needs at least one block")

    # ------------------------------------------------------------------ factories
    @classmethod
    def paper_default(cls, side: str) -> "InterfaceAssembly":
        """The exact ``"transmitter"`` or ``"receiver"`` the paper synthesised (Table I)."""
        blocks = tuple(
            HardwareBlock(FDSOI_28NM.block(name), modes, always_on=index == 0)
            for index, (name, modes) in enumerate(zip(_side_table(side), _TABLE_I_MODES))
        )
        return cls(blocks)

    @classmethod
    def from_codes(
        cls,
        side: str,
        codes: Iterable,
        *,
        ip_bus_width_bits: int = 64,
        ip_clock_hz: float = 1e9,
        modulation_rate_hz: float = 10e9,
    ) -> "InterfaceAssembly":
        """Build one side for an arbitrary set of coding schemes.

        Each code with redundancy gets a codec bank (``ip_bus_width / k``
        parallel instances) and a SER/DES sized to its coded word; the
        uncoded path always exists.  The transmitter gets encoders,
        serialisers and a 1-bit mux, the receiver decoders, deserialisers
        and a bus-wide mux.  Blocks are estimated parametrically.
        """
        _side_table(side)  # rejects an unknown side
        transmitter = side == "transmitter"
        role = "encoder" if transmitter else "decoder"
        serdes = serializer_block if transmitter else deserializer_block
        codes = list(codes)
        mode_names = [getattr(code, "name", str(code)) for code in codes]
        block_list: list[HardwareBlock] = [
            HardwareBlock(
                mux_block(1 if transmitter else ip_bus_width_bits, num_inputs=len(codes) + 1),
                tuple(mode_names) + (UNCODED_MODE,),
                always_on=True,
            ),
            HardwareBlock(
                serdes(ip_bus_width_bits, modulation_rate_hz=modulation_rate_hz),
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
                        code, role=role, num_instances=instances, ip_clock_hz=ip_clock_hz
                    ),
                    (mode,),
                )
            )
            block_list.append(
                HardwareBlock(
                    serdes(instances * code.n, modulation_rate_hz=modulation_rate_hz),
                    (mode,),
                )
            )
        return cls(tuple(block_list))

    def modes(self) -> list[str]:
        """All communication modes any block participates in."""
        names: list[str] = []
        for block in self.blocks:
            for mode in block.modes:
                if mode not in names:
                    names.append(mode)
        return names

    def _check_mode(self, mode: str) -> None:
        if mode not in self.modes():
            raise ConfigurationError(f"unknown mode {mode!r}; available: {self.modes()}")

    @property
    def total_area_um2(self) -> float:
        """Total interface area (all paths are physically present)."""
        return sum(block.characterisation.area_um2 for block in self.blocks)

    @property
    def total_static_power_nw(self) -> float:
        """Total static power (every block leaks regardless of the mode)."""
        return sum(block.characterisation.static_power_nw for block in self.blocks)

    def active_blocks(self, mode: str) -> list[HardwareBlock]:
        """Blocks toggling in a given communication mode."""
        self._check_mode(mode)
        return [block for block in self.blocks if block.active_in(mode)]

    def dynamic_power_uw(self, mode: str) -> float:
        """Dynamic power of the selected path, in microwatts (Table I rows)."""
        return sum(b.characterisation.dynamic_power_uw for b in self.active_blocks(mode))

    def total_power_uw(self, mode: str) -> float:
        """Dynamic power of the path plus the full static power, in microwatts."""
        return self.dynamic_power_uw(mode) + self.total_static_power_nw * 1e-3

    def total_power_w(self, mode: str) -> float:
        """Total interface power in watts for a communication mode."""
        return self.total_power_uw(mode) * 1e-6

    def critical_path_ps(self, mode: str) -> float:
        """Critical path of the active blocks in a mode."""
        return max(b.characterisation.critical_path_ps for b in self.active_blocks(mode))

    def as_table(self) -> Dict[str, BlockCharacterisation]:
        """Every block keyed by name, for report generation."""
        return {block.name: block.characterisation for block in self.blocks}


#: The calibration constants of the paper's 28 nm FDSOI library.
_calibration = FDSOI_28NM.calibration


def _side_table(side: str) -> tuple[str, ...]:
    """Table I block names of one side; rejects any side but the two."""
    if side not in _TABLE_I_BLOCKS:
        raise ConfigurationError(
            f"unknown interface side {side!r}; available: {sorted(_TABLE_I_BLOCKS)}"
        )
    return _TABLE_I_BLOCKS[side]


def _codec_gate_counts(code, num_instances: int) -> tuple[int, int, int]:
    """(xor2 gates, output flip-flops, codeword bits) of a codec bank.

    Each parity bit is an XOR tree over the message bits it covers; the
    number of 2-input XORs is (inputs - 1).  The generator matrix gives the
    exact cover sizes, so the estimate adapts to shortened codes.
    """
    generator = code.generator_matrix
    parity_columns = generator[:, code.k:]
    xor2 = 0
    for parity_index in range(parity_columns.shape[1]):
        inputs = int(parity_columns[:, parity_index].sum())
        xor2 += max(inputs - 1, 0)
    flipflops = code.n
    return xor2 * num_instances, flipflops * num_instances, code.n * num_instances


def hamming_codec_block(
    code,
    *,
    role: str,
    num_instances: int = 1,
    ip_clock_hz: float = 1e9,
) -> BlockCharacterisation:
    """Estimate a bank of Hamming encoders or decoders.

    Parameters
    ----------
    code:
        A systematic linear block code (needs ``generator_matrix``/``n``/``k``).
    role:
        Either ``"encoder"`` or ``"decoder"``.
    num_instances:
        Number of parallel codec instances (16 for H(7,4) on a 64-bit bus).
    ip_clock_hz:
        Clock of the codec stage; dynamic power scales linearly with it.
    """
    if role not in {"encoder", "decoder"}:
        raise ConfigurationError("role must be 'encoder' or 'decoder'")
    if num_instances < 1:
        raise ConfigurationError("at least one codec instance is required")
    xor2, flipflops, codeword_bits = _codec_gate_counts(code, num_instances)
    xor_area = _calibration("xor2_area_um2")
    ff_area = _calibration("flipflop_area_um2")
    area = xor2 * xor_area + flipflops * ff_area
    # Critical path: the deepest parity tree (log2 depth) plus register setup.
    generator = code.generator_matrix
    max_inputs = max(
        int(generator[:, code.k + i].sum()) for i in range(code.num_parity_bits)
    )
    tree_depth = max(1, math.ceil(math.log2(max(max_inputs, 2))))
    critical_path = tree_depth * _calibration("xor2_delay_ps") + _calibration("register_setup_ps")
    if role == "decoder":
        area += codeword_bits * _calibration("decode_correct_area_um2_per_bit")
        critical_path += 2 * _calibration("xor2_delay_ps")
    density = _calibration("codec_dynamic_power_density_uw_per_um2_at_1ghz")
    dynamic = area * density * (ip_clock_hz / _calibration("reference_ip_clock_hz"))
    static = area * _calibration("static_power_density_nw_per_um2")
    label = f"{role}:{code.name}x{num_instances}"
    return BlockCharacterisation(
        name=label,
        area_um2=area,
        critical_path_ps=critical_path,
        static_power_nw=static,
        dynamic_power_uw=dynamic,
    )


def serializer_block(num_bits: int, *, modulation_rate_hz: float) -> BlockCharacterisation:
    """Estimate an ``num_bits``-deep serialiser clocked at the modulation rate."""
    if num_bits < 1:
        raise ConfigurationError("serialiser depth must be positive")
    area = num_bits * _calibration("serializer_area_um2_per_bit")
    rate_scale = modulation_rate_hz / _calibration("reference_modulation_rate_hz")
    dynamic = num_bits * _calibration("serializer_dynamic_uw_per_bit_at_10g") * rate_scale
    static = area * _calibration("static_power_density_nw_per_um2") * 4.0
    return BlockCharacterisation(
        name=f"ser:{num_bits}b",
        area_um2=area,
        critical_path_ps=70.0,
        static_power_nw=static,
        dynamic_power_uw=dynamic,
    )


def deserializer_block(num_bits: int, *, modulation_rate_hz: float) -> BlockCharacterisation:
    """Estimate an ``num_bits``-deep deserialiser clocked at the modulation rate."""
    if num_bits < 1:
        raise ConfigurationError("deserialiser depth must be positive")
    area = num_bits * _calibration("deserializer_area_um2_per_bit")
    rate_scale = modulation_rate_hz / _calibration("reference_modulation_rate_hz")
    dynamic = num_bits * _calibration("deserializer_dynamic_uw_per_bit_at_10g") * rate_scale
    static = area * _calibration("static_power_density_nw_per_um2") * 4.0
    return BlockCharacterisation(
        name=f"deser:{num_bits}b",
        area_um2=area,
        critical_path_ps=60.0,
        static_power_nw=static,
        dynamic_power_uw=dynamic,
    )


def mux_block(width_bits: int, num_inputs: int = 3) -> BlockCharacterisation:
    """Estimate a ``num_inputs``-to-1 path multiplexer of a given width."""
    if width_bits < 1 or num_inputs < 2:
        raise ConfigurationError("mux needs a positive width and at least two inputs")
    scale = (num_inputs - 1) / 2.0
    area = width_bits * _calibration("mux_area_um2_per_bit") * scale
    dynamic = width_bits * _calibration("mux_dynamic_uw_per_bit") * scale
    static = area * _calibration("static_power_density_nw_per_um2") * 4.0
    return BlockCharacterisation(
        name=f"mux:{width_bits}b_{num_inputs}to1",
        area_um2=area,
        critical_path_ps=80.0,
        static_power_nw=static,
        dynamic_power_uw=dynamic,
    )
