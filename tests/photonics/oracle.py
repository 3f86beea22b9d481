"""Per-channel crosstalk and forward Eq. 4: the photonics test oracle.

:func:`crosstalk_ratios` evaluates the unmemoized
:meth:`~repro.photonics.crosstalk.CrosstalkModel.crosstalk_ratio` of every
channel of the grid, one at a time; the crosstalk tests pin the memoized
worst case against its maximum.

:func:`equation_four_snr` is the paper's Eq. 4 in the forward direction
(optical powers to SNR); the detector and link-solver tests pin
:meth:`~repro.photonics.photodetector.Photodetector.required_signal_power`,
its inverse, against it.

Tests import this module as ``from photonics.oracle import ...``, which
keeps it apart from the other ``tests/*/oracle.py`` modules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crosstalk_ratios", "equation_four_snr"]


def crosstalk_ratios(model) -> np.ndarray:
    """Crosstalk ratios of every channel of ``model``'s grid."""
    return np.array(
        [model.crosstalk_ratio(channel) for channel in range(model.grid.num_channels)]
    )


def equation_four_snr(detector, signal_power_w: float, crosstalk_power_w: float = 0.0) -> float:
    """Paper Eq. 4: ``SNR = R (OPsignal - OPcrosstalk) / i_n``, 0 for a closed eye.

    The crosstalk power is subtracted from the useful signal (it erodes the
    eye opening) and ``detector``'s dark current is the noise reference.
    """
    useful = detector.responsivity_a_per_w * (signal_power_w - crosstalk_power_w)
    return max(useful, 0.0) / detector.dark_current_a
