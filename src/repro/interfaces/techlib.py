"""28 nm FDSOI block characterisation library (paper Table I).

The paper synthesised the transmitter and receiver interfaces on a 28 nm
FDSOI technology for a 64-bit IP bus at FIP = 1 GHz and a modulation rate of
10 Gb/s, and reports per-block area, critical path and power in Table I.
Since we cannot re-run a commercial synthesis flow, those numbers are
captured here as a *technology library*: the experiments read the blocks
they need from the library, and the parametric models of
:mod:`repro.interfaces.blocks` are calibrated against these entries so other
code sizes and bus widths can be explored.

Power conventions follow the paper: static power in nanowatts, dynamic power
in microwatts, area in square micrometres and critical path in picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..exceptions import ConfigurationError

__all__ = ["BlockCharacterisation", "TechnologyLibrary", "FDSOI_28NM"]


@dataclass(frozen=True)
class BlockCharacterisation:
    """Synthesis characterisation of one hardware block."""

    name: str
    area_um2: float
    critical_path_ps: float
    static_power_nw: float
    dynamic_power_uw: float

    def __post_init__(self) -> None:
        if self.area_um2 < 0 or self.critical_path_ps < 0:
            raise ConfigurationError("area and critical path cannot be negative")
        if self.static_power_nw < 0 or self.dynamic_power_uw < 0:
            raise ConfigurationError("powers cannot be negative")

    @property
    def total_power_uw(self) -> float:
        """Total power in microwatts (static is quoted in nanowatts)."""
        return self.dynamic_power_uw + self.static_power_nw * 1e-3

    @property
    def total_power_w(self) -> float:
        """Total power in watts."""
        return self.total_power_uw * 1e-6


class TechnologyLibrary:
    """A named collection of block characterisations plus calibration constants.

    The calibration constants are per-element figures derived from the
    Table I entries (flip-flop area, XOR-gate area, per-bit serialiser cost,
    dynamic power densities); :mod:`repro.interfaces.blocks` uses them to
    estimate blocks that are not in the library.
    """

    def __init__(
        self,
        name: str,
        *,
        blocks: Iterable[BlockCharacterisation],
        calibration: Dict[str, float],
    ):
        self._name = name
        self._blocks: Dict[str, BlockCharacterisation] = {}
        for block in blocks:
            if block.name in self._blocks:
                raise ConfigurationError(f"duplicate block {block.name!r} in library")
            self._blocks[block.name] = block
        self._calibration = dict(calibration)

    @property
    def name(self) -> str:
        """Library name (e.g. ``"28nm FDSOI"``)."""
        return self._name

    def block_names(self) -> list[str]:
        """Sorted names of all characterised blocks."""
        return sorted(self._blocks)

    def block(self, name: str) -> BlockCharacterisation:
        """Look up a characterised block by exact name."""
        if name not in self._blocks:
            raise ConfigurationError(
                f"block {name!r} is not characterised in {self._name}; "
                f"known blocks: {self.block_names()}"
            )
        return self._blocks[name]

    def calibration(self, key: str) -> float:
        """Look up a calibration constant (e.g. ``"xor2_area_um2"``)."""
        if key not in self._calibration:
            raise ConfigurationError(
                f"unknown calibration constant {key!r}; known: {sorted(self._calibration)}"
            )
        return self._calibration[key]


# --------------------------------------------------------------------------------
# Table I of the paper, verbatim.  Block names encode side and mode so the
# interface assemblies can fetch exactly what the paper lists.
# --------------------------------------------------------------------------------
_TABLE_I_BLOCKS = [
    # Transmitter side.
    BlockCharacterisation("tx/mux_1bit_3to1", 14.0, 80.0, 0.2, 0.23),
    BlockCharacterisation("tx/h74_coders_x16", 551.0, 210.0, 1.7, 3.13),
    BlockCharacterisation("tx/h71_64_coder", 490.0, 350.0, 1.6, 2.51),
    BlockCharacterisation("tx/ser_112bit_h74", 433.0, 70.0, 6.5, 6.21),
    BlockCharacterisation("tx/ser_71bit_h71_64", 276.0, 70.0, 4.1, 3.24),
    BlockCharacterisation("tx/ser_64bit_uncoded", 249.0, 70.0, 3.6, 2.93),
    # Receiver side.
    BlockCharacterisation("rx/mux_64bit_3to1", 815.0, 80.0, 10.8, 1.55),
    BlockCharacterisation("rx/h74_decoders_x16", 783.0, 300.0, 2.5, 3.80),
    BlockCharacterisation("rx/h71_64_decoder", 648.0, 570.0, 2.2, 2.63),
    BlockCharacterisation("rx/deser_112bit_h74", 365.0, 60.0, 5.5, 4.75),
    BlockCharacterisation("rx/deser_71bit_h71_64", 231.0, 60.0, 3.5, 3.02),
    BlockCharacterisation("rx/deser_64bit_uncoded", 208.0, 60.0, 3.0, 2.75),
]

# Per-element constants fitted on the Table I entries (see the derivation in
# tests/interfaces/test_blocks.py): a 28 nm flip-flop occupies ~3.5 um^2, a
# 2-input XOR ~1.1 um^2, the serialiser costs ~3.9 um^2 and ~0.05 uW per bit
# at 10 Gb/s, the deserialiser ~3.3 um^2 and ~0.043 uW per bit.
_CALIBRATION = {
    "flipflop_area_um2": 3.48,
    "xor2_area_um2": 1.12,
    "decode_correct_area_um2_per_bit": 2.07,
    "serializer_area_um2_per_bit": 3.89,
    "deserializer_area_um2_per_bit": 3.25,
    "serializer_dynamic_uw_per_bit_at_10g": 0.050,
    "deserializer_dynamic_uw_per_bit_at_10g": 0.0425,
    "codec_dynamic_power_density_uw_per_um2_at_1ghz": 0.0052,
    "mux_area_um2_per_bit": 12.7,
    "mux_dynamic_uw_per_bit": 0.024,
    "static_power_density_nw_per_um2": 0.0033,
    "xor2_delay_ps": 18.0,
    "register_setup_ps": 45.0,
    "reference_ip_clock_hz": 1e9,
    "reference_modulation_rate_hz": 10e9,
}

FDSOI_28NM = TechnologyLibrary(
    "28nm FDSOI",
    blocks=_TABLE_I_BLOCKS,
    calibration=_CALIBRATION,
)
"""The paper's synthesis technology, populated from Table I."""
