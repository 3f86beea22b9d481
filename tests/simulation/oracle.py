"""Per-bit references of the error models: the fault-model test oracle.

:meth:`repro.simulation.faults.BurstErrorModel.error_pattern` classifies
every transition draw at once and rebuilds the two-state chain with
cumulative scans.  :func:`burst_error_pattern_reference` is the loop it
replaced: it steps the Markov chain one bit at a time over the same draws,
so from the same generator state both return the same pattern and leave
the same carried-over state.

:func:`independent_error_pattern_reference` is the unpacked flip vector of
:class:`~repro.simulation.faults.IndependentErrorModel`: one uniform per
bit, compared with the flip probability, which
:meth:`~repro.simulation.faults.IndependentErrorModel.error_mask_packed`
packs straight into words.

Tests import this module as ``from simulation.oracle import ...``; the
qualified name keeps it apart from ``tests/netsim/oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel

__all__ = ["burst_error_pattern_reference", "independent_error_pattern_reference"]


def independent_error_pattern_reference(model: IndependentErrorModel, num_bits: int) -> np.ndarray:
    """A 0/1 ``uint8`` vector with ones at the positions ``model`` flips."""
    if num_bits < 0:
        raise ConfigurationError("number of bits cannot be negative")
    return (model.rng.random(num_bits) < model.bit_error_probability).astype(np.uint8)


def burst_error_pattern_reference(model: BurstErrorModel, num_bits: int) -> np.ndarray:
    """Pre-vectorization per-bit Markov loop over ``model``'s stream and state."""
    if num_bits < 0:
        raise ConfigurationError("number of bits cannot be negative")
    pattern = np.zeros(num_bits, dtype=np.uint8)
    uniform = model.rng.random(num_bits * 2).reshape(2, num_bits)
    for index in range(num_bits):
        if model._in_bad_state:
            if uniform[0, index] < model.bad_to_good_probability:
                model._in_bad_state = False
        else:
            if uniform[0, index] < model.good_to_bad_probability:
                model._in_bad_state = True
        probability = (
            model.bad_error_probability if model._in_bad_state else model.good_error_probability
        )
        if uniform[1, index] < probability:
            pattern[index] = 1
    return pattern
