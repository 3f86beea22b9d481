"""BER/SNR relations for the on-off-keyed optical link (paper Eq. 1–3).

The paper models detection with the classic complementary-error-function
relation between (power) signal-to-noise ratio and raw bit error
probability:

* Eq. 3: ``p = 0.5 * erfc(sqrt(SNR))``
* Eq. 1 (inverted form): ``SNR = [erfc^-1(2 * BER)]^2``

Note on Eq. 1 as printed in the paper: it reads
``SNR = [erfc^-1(1 - 2 BER)]^2``, which is only consistent with Eq. 3 if the
``erfc^-1`` is read as ``erf^-1`` (since ``erf^-1(1 - x) = erfc^-1(x)``).
This module implements the self-consistent pair, i.e. the exact inverse of
Eq. 3, and documents the discrepancy (see DESIGN.md, "errata handled").

For coded links the chain is: target post-decoding BER → tolerable raw
channel BER (inverting Eq. 2, :func:`repro.coding.theory.raw_ber_for_target_output_ber`)
→ required SNR (this module) → required optical power (``repro.link``).

``erfc`` and ``erfcinv`` are the float ports of :mod:`repro.special`, which
return ``scipy.special``'s bits without importing SciPy.  A float argument
runs the port directly (one call per solved design point); the array forms
stay public and apply the same float kernel element by element, so a
scalar and an array element always agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..coding.theory import raw_ber_for_target_output_ber
from ..exceptions import ConfigurationError
from ..special import erfc, erfcinv

__all__ = [
    "raw_ber_from_snr",
    "snr_from_ber",
    "required_raw_ber",
    "required_snr",
]


def raw_ber_from_snr(snr: float | np.ndarray) -> float | np.ndarray:
    """Raw bit error probability of OOK detection at a given power SNR.

    Implements paper Eq. 3: ``p = 0.5 * erfc(sqrt(SNR))``.
    """
    if isinstance(snr, float):
        if not snr >= 0.0:
            raise ConfigurationError("SNR must be non-negative")
        return _eq3(snr)
    snr_arr = np.asarray(snr, dtype=float)
    if not (snr_arr >= 0).all():
        raise ConfigurationError("SNR must be non-negative")
    result = _elementwise(_eq3, snr_arr)
    if np.isscalar(snr):
        return float(result)
    return result


def snr_from_ber(ber: float | np.ndarray) -> float | np.ndarray:
    """Power SNR required to reach a raw bit error probability (paper Eq. 1).

    Self-consistent inverse of :func:`raw_ber_from_snr`:
    ``SNR = [erfc^-1(2 * BER)]^2``.
    """
    if isinstance(ber, float):
        if not 0.0 < ber < 0.5:
            raise ConfigurationError("BER must lie in (0, 0.5) for the SNR to be defined")
        return _eq1(ber)
    ber_arr = np.asarray(ber, dtype=float)
    if not ((ber_arr > 0) & (ber_arr < 0.5)).all():
        raise ConfigurationError("BER must lie in (0, 0.5) for the SNR to be defined")
    result = _elementwise(_eq1, ber_arr)
    if np.isscalar(ber):
        return float(result)
    return result


def _eq3(snr: float) -> float:
    return 0.5 * erfc(math.sqrt(snr))


def _eq1(ber: float) -> float:
    return erfcinv(2.0 * ber) ** 2


def _elementwise(kernel, values: np.ndarray) -> np.ndarray:
    """``kernel`` applied to every element of ``values``, keeping the shape."""
    flat = [kernel(value) for value in values.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(values.shape)


def required_raw_ber(code, target_ber: float) -> float:
    """Raw channel BER tolerated by ``code`` while meeting ``target_ber``.

    Thin wrapper around the coding-theory inversion so link-level code only
    needs this module.
    """
    return raw_ber_for_target_output_ber(code, target_ber)


def required_snr(code, target_ber: float) -> float:
    """SNR required at the photodetector for a coded link to hit ``target_ber``.

    Chains the inversion of Eq. 2 (code) with the inversion of Eq. 3 (OOK
    detection).  For the uncoded scheme this reduces to
    ``snr_from_ber(target_ber)``.
    """
    raw = required_raw_ber(code, target_ber)
    return float(snr_from_ber(raw))
