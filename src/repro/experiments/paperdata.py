"""Reference values reported by the paper, used for comparison only.

Nothing in the library *reads* these numbers to produce its results; they
exist so the experiment reports can place the reproduced values next to
the published ones and quantify the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PAPER_LASER_POWER_MW_AT_1E11",
    "PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW",
    "PAPER_ENERGY_PER_BIT_PJ",
    "PAPER_LASER_SHARE_UNCODED",
    "PAPER_TOTAL_SAVING_W",
    "PAPER_TABLE1_TOTALS_UW",
    "PAPER_TABLE1_AREA_UM2",
    "PAPER_EXTINCTION_RATIO_DB",
    "relative_error",
    "Comparison",
]

#: Figure 5 at BER = 1e-11: electrical laser power per wavelength (mW).
PAPER_LASER_POWER_MW_AT_1E11 = {
    "w/o ECC": 14.35,
    "H(71,64)": 7.12,
    "H(7,4)": 6.64,
}

#: Section V-C: per-waveguide channel power (16 wavelengths), in mW.
PAPER_CHANNEL_POWER_PER_WAVEGUIDE_MW = {
    "w/o ECC": 251.0,
    "H(71,64)": 136.0,
}

#: Section V-C: energy per bit at BER = 1e-11, in pJ/bit.
PAPER_ENERGY_PER_BIT_PJ = {
    "w/o ECC": 3.92,
    "H(71,64)": 3.76,
    "H(7,4)": 5.58,
}

#: Section V-C: share of the channel power drawn by the lasers without ECC.
PAPER_LASER_SHARE_UNCODED = 0.92

#: Section V-C: total interconnect power saving with H(71,64), in watts.
PAPER_TOTAL_SAVING_W = 22.0

#: Section IV-D: modulator extinction ratio, in dB.
PAPER_EXTINCTION_RATIO_DB = 6.9

#: Table I: per-mode total power (dynamic ~ total) of each interface side, uW.
PAPER_TABLE1_TOTALS_UW = {
    ("transmitter", "H(7,4)"): 9.59,
    ("transmitter", "H(71,64)"): 6.01,
    ("transmitter", "w/o ECC"): 3.18,
    ("receiver", "H(7,4)"): 10.1,
    ("receiver", "H(71,64)"): 7.23,
    ("receiver", "w/o ECC"): 4.32,
}

#: Table I: total area of each interface side, um^2.
PAPER_TABLE1_AREA_UM2 = {
    "transmitter": 2013.0,
    "receiver": 3050.0,
}


def relative_error(measured: float, reference: float) -> float:
    """Signed relative error of a measured value against the paper's value."""
    if reference == 0:
        raise ZeroDivisionError("reference value is zero; relative error undefined")
    return (measured - reference) / reference


@dataclass(frozen=True)
class Comparison:
    """A single measured-vs-paper comparison entry."""

    quantity: str
    measured: float
    reference: float
    unit: str = ""

    @property
    def relative_error(self) -> float:
        """Signed relative deviation from the paper's value."""
        return relative_error(self.measured, self.reference)

    def render(self) -> str:
        """One-line textual rendering of the comparison."""
        return (
            f"{self.quantity:<45s} measured={self.measured:10.3f} {self.unit:<5s} "
            f"paper={self.reference:10.3f} {self.unit:<5s} "
            f"({self.relative_error * 100.0:+.1f}%)"
        )
