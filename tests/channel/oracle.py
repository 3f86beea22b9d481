"""Per-bit reference of the OOK/AWGN channel: the channel test oracle.

:meth:`repro.channel.awgn.OOKAWGNChannel.transmit_batch_packed` thresholds
its noise matrix into two packed decision planes and muxes them with the
transmitted words.  :func:`transmit_reference` is the unpacked chain it
replaced: it maps every bit to its photocurrent level, adds the same
``(B, n)`` Gaussian noise draw and thresholds bit by bit, so from the same
generator state both make the same decisions.

Tests import this module as ``from channel.oracle import ...``; the
qualified name keeps it apart from the other ``tests/*/oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.channel.awgn import OOKAWGNChannel
from repro.coding.matrices import as_gf2

__all__ = ["transmit_reference"]


def transmit_reference(channel: OOKAWGNChannel, blocks) -> np.ndarray:
    """Hard decisions for a ``(B, n)`` block matrix, one noise draw per bit."""
    matrix = as_gf2(blocks)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (B, n) block matrix, got shape {matrix.shape}")
    levels = channel._levels()
    currents = np.where(matrix == 1, levels.high_a, levels.low_a).astype(float)
    noisy = currents + channel._rng.normal(0.0, levels.noise_sigma_a, size=currents.shape)
    return (noisy > levels.threshold_a).astype(np.uint8)
