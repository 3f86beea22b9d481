"""On-off-keyed optical channel with Gaussian decision noise.

This is the physical-level counterpart of the analytic Eq. 3/4 chain: a '1'
is transmitted as the high optical level and a '0' as the low level (finite
extinction ratio), the photodetector converts power to current and a
Gaussian noise current perturbs the threshold decision.

The paper defines the link SNR as ``R * (OPsignal - OPcrosstalk) / i_n``
(Eq. 4) and the raw bit error probability as ``0.5 * erfc(sqrt(SNR))``
(Eq. 3).  That SNR is a *current ratio* convention rather than a physical
noise-variance ratio, so the channel calibrates its Gaussian noise standard
deviation such that a mid-eye threshold decision reproduces exactly the
Eq. 3 error probability at the configured operating point:

``sigma = (eye current) / (2 * sqrt(2) * sqrt(SNR))``

where the eye current is ``R * OPsignal`` (OPsignal being the useful eye
power delivered by the link budget, i.e. already net of the extinction-ratio
penalty).  With that calibration the Monte-Carlo raw BER of the simulated
link converges to the analytic raw BER, which the integration tests verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coding.packed import pack_bits, require_packed_blocks
from ..exceptions import ConfigurationError
from ..units import db_to_linear

__all__ = ["OOKAWGNChannel"]


@dataclass(frozen=True)
class _Levels:
    """Photocurrents of the two OOK symbols and the decision threshold."""

    high_a: float
    low_a: float
    threshold_a: float
    noise_sigma_a: float


class OOKAWGNChannel:
    """OOK transmission with finite extinction ratio and calibrated Gaussian noise.

    Parameters
    ----------
    signal_power_w:
        Useful optical signal power (eye opening, '1' level minus '0' level)
        reaching the photodetector — the ``OPsignal`` produced by
        :class:`repro.link.power_budget.LinkPowerBudget`.
    crosstalk_power_w:
        Worst-case optical crosstalk power, added to both levels and
        subtracted from the useful signal in the SNR (``OPcrosstalk``).
    extinction_ratio_db:
        Ratio between the '1' and '0' optical levels; fixes where the two
        levels sit for a given eye opening.
    responsivity_a_per_w:
        Photodetector responsivity (A/W).
    dark_current_a:
        The noise reference current ``i_n`` of Eq. 4 (4 uA in the paper).
    rng:
        Optional numpy random generator for reproducibility.
    """

    def __init__(
        self,
        signal_power_w: float,
        *,
        crosstalk_power_w: float = 0.0,
        extinction_ratio_db: float = 6.9,
        responsivity_a_per_w: float = 1.0,
        dark_current_a: float = 4e-6,
        rng: np.random.Generator | None = None,
    ):
        if signal_power_w <= 0:
            raise ConfigurationError("signal power must be positive")
        if crosstalk_power_w < 0:
            raise ConfigurationError("crosstalk power cannot be negative")
        if extinction_ratio_db <= 0:
            raise ConfigurationError("extinction ratio must be positive in dB")
        if responsivity_a_per_w <= 0:
            raise ConfigurationError("responsivity must be positive")
        if dark_current_a <= 0:
            raise ConfigurationError("dark current must be positive")
        if crosstalk_power_w >= signal_power_w:
            raise ConfigurationError("crosstalk exceeds the useful signal; the eye is closed")
        self._signal_power_w = float(signal_power_w)
        self._crosstalk_power_w = float(crosstalk_power_w)
        self._er_linear = float(db_to_linear(extinction_ratio_db))
        self._responsivity = float(responsivity_a_per_w)
        self._dark_current = float(dark_current_a)
        self._rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------ SNR
    @property
    def effective_snr(self) -> float:
        """SNR in the paper's Eq. 4 convention."""
        useful = self._responsivity * (self._signal_power_w - self._crosstalk_power_w)
        return useful / self._dark_current

    @property
    def analytic_ber(self) -> float:
        """Raw BER predicted by Eq. 3 for this channel's SNR."""
        from .ber import raw_ber_from_snr

        return float(raw_ber_from_snr(self.effective_snr))

    # ------------------------------------------------------------------ levels
    def _levels(self) -> _Levels:
        """Photocurrent levels, threshold and calibrated noise sigma."""
        # The eye opening is the useful signal power; with extinction ratio
        # ER the '1' level is eye / (1 - 1/ER) and the '0' level is '1' / ER.
        eye_power = self._signal_power_w
        one_level_power = eye_power / (1.0 - 1.0 / self._er_linear)
        zero_level_power = one_level_power / self._er_linear
        high = self._responsivity * (one_level_power + self._crosstalk_power_w)
        low = self._responsivity * (zero_level_power + self._crosstalk_power_w)
        half_eye = 0.5 * self._responsivity * eye_power
        snr = self.effective_snr
        sigma = half_eye / (math.sqrt(2.0) * math.sqrt(snr))
        return _Levels(
            high_a=high,
            low_a=low,
            threshold_a=0.5 * (high + low),
            noise_sigma_a=sigma,
        )

    # ------------------------------------------------------------------ transmission
    def transmit_batch_packed(self, words, *, n: int) -> np.ndarray:
        """Transmit a packed ``(B, ceil(n/64))`` matrix of ``n``-bit blocks.

        One ``(B, n)`` Gaussian noise matrix is sampled for the whole batch
        (row-major, one draw per bit) and thresholded into two per-bit
        decision planes — what the receiver would output had the bit been a
        '1' (high level) or a '0' (low level).  Those planes are packed
        straight into words and muxed by the transmitted bits, so the
        decisions equal thresholding ``level + noise`` bit by bit with no
        unpacked block matrix in between.
        """
        matrix = require_packed_blocks(words, n)
        levels = self._levels()
        noise = self._rng.normal(0.0, levels.noise_sigma_a, size=(matrix.shape[0], n))
        decisions_if_one = pack_bits((levels.high_a + noise) > levels.threshold_a)
        decisions_if_zero = pack_bits((levels.low_a + noise) > levels.threshold_a)
        return (matrix & decisions_if_one) | (~matrix & decisions_if_zero)
