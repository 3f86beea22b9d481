"""Channel abstractions and BER/SNR mathematics.

* :mod:`repro.channel.ber` — the paper's Eq. 1–3: conversions between raw
  bit error probability and electrical SNR for OOK detection, plus the
  required-SNR solver for coded transmissions.
* :mod:`repro.channel.awgn` — OOK-over-AWGN channel with finite extinction
  ratio; bridges the photonic power levels and the bit-level simulators.
"""

from .ber import (
    raw_ber_from_snr,
    required_raw_ber,
    required_snr,
    snr_from_ber,
)
from .awgn import OOKAWGNChannel

__all__ = [
    "raw_ber_from_snr",
    "snr_from_ber",
    "required_raw_ber",
    "required_snr",
    "OOKAWGNChannel",
]
