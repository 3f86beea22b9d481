"""Per-channel crosstalk reference: the photonics test oracle.

:func:`crosstalk_ratios` evaluates the unmemoized
:meth:`~repro.photonics.crosstalk.CrosstalkModel.crosstalk_ratio` of every
channel of the grid, one at a time; the crosstalk tests pin the memoized
worst case against its maximum.

Tests import this module as ``from photonics.oracle import ...``, which
keeps it apart from the other ``tests/*/oracle.py`` modules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crosstalk_ratios"]


def crosstalk_ratios(model) -> np.ndarray:
    """Crosstalk ratios of every channel of ``model``'s grid."""
    return np.array(
        [model.crosstalk_ratio(channel) for channel in range(model.grid.num_channels)]
    )
