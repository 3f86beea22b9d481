"""dB conversion helpers used throughout :mod:`repro`.

The optical-link literature mixes decibel and linear quantities freely; the
paper quotes waveguide loss in dB/cm, extinction ratio in dB, laser output
power in microwatts and laser electrical power in milliwatts.  Internally the
library works in SI base units (watts, metres, seconds, hertz) and linear
power ratios.  This module provides the dB conversions, so the rest of the
code never embeds magic conversion factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "db_loss_to_transmission",
]


def db_to_linear(value_db: float | np.ndarray) -> float | np.ndarray:
    """Convert a power ratio expressed in dB to a linear ratio.

    ``db_to_linear(3.0)`` is approximately ``2.0``; negative dB values map to
    ratios below one.
    """
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0) if isinstance(
        value_db, (np.ndarray, list, tuple)
    ) else 10.0 ** (float(value_db) / 10.0)


def linear_to_db(value: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear power ratio to dB.

    Raises :class:`ValueError` for non-positive scalar inputs because a
    non-positive power ratio has no dB representation.
    """
    if isinstance(value, (np.ndarray, list, tuple)):
        arr = np.asarray(value, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("linear power ratios must be strictly positive")
        return 10.0 * np.log10(arr)
    if value <= 0:
        raise ValueError("linear power ratios must be strictly positive")
    return 10.0 * math.log10(float(value))


def db_loss_to_transmission(loss_db: float) -> float:
    """Convert a loss expressed in (positive) dB to a transmission factor.

    A loss of ``3 dB`` corresponds to a transmission of about ``0.5``.  A
    negative loss would be a gain, which passive photonic elements cannot
    provide, so negative values are rejected.
    """
    if loss_db < 0:
        raise ValueError("a passive loss must be non-negative in dB")
    return 10.0 ** (-loss_db / 10.0)
