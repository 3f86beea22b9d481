"""Unit helpers and physical constants used throughout :mod:`repro`.

The optical-link literature mixes decibel and linear quantities freely; the
paper quotes waveguide loss in dB/cm, extinction ratio in dB, laser output
power in microwatts and laser electrical power in milliwatts.  Internally the
library works in SI base units (watts, metres, seconds, hertz) and linear
power ratios.  This module provides the dB conversions plus a few
convenience constants so the rest of the code never embeds magic
conversion factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "db_loss_to_transmission",
    "milli",
    "micro",
    "nano",
    "pico",
    "femto",
    "giga",
    "mega",
    "kilo",
    "PLANCK_CONSTANT",
    "SPEED_OF_LIGHT",
    "ELEMENTARY_CHARGE",
    "BOLTZMANN_CONSTANT",
]

# Physical constants (SI units).
PLANCK_CONSTANT = 6.626_070_15e-34  # J.s
SPEED_OF_LIGHT = 299_792_458.0  # m/s
ELEMENTARY_CHARGE = 1.602_176_634e-19  # C
BOLTZMANN_CONSTANT = 1.380_649e-23  # J/K

# SI prefixes as multiplicative factors.
milli = 1e-3
micro = 1e-6
nano = 1e-9
pico = 1e-12
femto = 1e-15
kilo = 1e3
mega = 1e6
giga = 1e9


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
