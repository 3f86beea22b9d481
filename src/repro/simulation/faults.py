"""Error-injection models for the bit-level simulators.

Two models are provided:

* :class:`IndependentErrorModel` flips each bit independently with a fixed
  probability — the stochastic twin of the analytic BSC used throughout the
  paper's equations.
* :class:`BurstErrorModel` produces two-state (Gilbert-Elliott style) error
  bursts: a low error probability in the "good" state and a high one in the
  "bad" state, with geometric sojourn times.  Bursts defeat single-error-
  correcting Hamming codes unless an interleaver spreads them, which
  ``examples/interconnect_power_report.py`` demonstrates.

The burst model is vectorized: instead of stepping the two-state Markov
chain one bit at a time in Python, :meth:`BurstErrorModel.error_pattern`
classifies every transition draw at once (toggle / force-good / force-bad /
hold), reconstructs the state sequence with a cumulative scan over those
events, and samples all error draws in one shot.  The pre-vectorization
per-bit loop survives as the test oracle ``tests/simulation/oracle.py``;
both paths consume the random stream identically, so for the same seed they
produce bit-exact identical patterns (see
``tests/simulation/test_burst_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coding.packed import pack_bits, words_per_block
from ..exceptions import ConfigurationError

__all__ = ["IndependentErrorModel", "BurstErrorModel"]


@dataclass
class IndependentErrorModel:
    """Independent (memoryless) bit flips with a fixed probability."""

    bit_error_probability: float
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_probability <= 1.0:
            raise ConfigurationError("bit error probability must lie in [0, 1]")
        if self.rng is None:
            self.rng = np.random.default_rng()

    def error_mask_packed(self, num_blocks: int, *, n: int) -> np.ndarray:
        """Packed ``(num_blocks, ceil(n/64))`` XOR mask of independent flips.

        One uniform per bit in row-major (transmission) order, compared with
        the flip probability and packed straight from the boolean
        comparison — no uint8 intermediate.
        An all-clean draw (the common case at operating BERs) skips the
        packing entirely and returns a zeros mask.
        """
        if num_blocks < 0:
            raise ConfigurationError("number of blocks cannot be negative")
        flips = self.rng.random(num_blocks * n) < self.bit_error_probability
        if not flips.any():
            return np.zeros((num_blocks, words_per_block(n)), dtype=np.uint64)
        return pack_bits(flips.reshape(num_blocks, n))

    def sparse_error_positions(self, num_bits: int) -> np.ndarray:
        """Positions of flipped bits, sampled by exact binomial thinning.

        Distribution-identical to thresholding ``num_bits`` uniforms (the
        flip count is ``Binomial(num_bits, p)`` and, given the count, the
        flip set is a uniform random subset), but O(#flips) instead of
        O(#bits): two small draws when errors are rare.  It consumes the
        random stream *differently* from :meth:`error_mask_packed`, so it is
        a sampling alternative (used by the bit-exact network sampler), not
        a bit-exact twin of it.
        """
        if num_bits < 0:
            raise ConfigurationError("number of bits cannot be negative")
        count = int(self.rng.binomial(num_bits, self.bit_error_probability))
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if count * count >= num_bits:
            # Dense regime: collision re-draws would thrash; one uniform per
            # bit is cheaper and exact.
            return np.nonzero(self.rng.random(num_bits) < self.bit_error_probability)[0]
        while True:
            positions = np.unique(self.rng.integers(0, num_bits, size=count))
            if positions.size == count:
                return positions

    @property
    def expected_ber(self) -> float:
        """Expected raw bit error rate of the model."""
        return self.bit_error_probability


@dataclass
class BurstErrorModel:
    """Two-state Gilbert-Elliott burst error model."""

    good_error_probability: float = 1e-6
    bad_error_probability: float = 0.2
    good_to_bad_probability: float = 1e-4
    bad_to_good_probability: float = 0.2
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        for name in (
            "good_error_probability",
            "bad_error_probability",
            "good_to_bad_probability",
            "bad_to_good_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.rng is None:
            self.rng = np.random.default_rng()
        self._in_bad_state = False

    def error_pattern(self, num_bits: int) -> np.ndarray:
        """Generate a burst-correlated error pattern of a given length.

        Vectorized: the per-bit transition draw ``u`` falls into one of
        three disjoint classes that fully determine the transition without
        knowing the current state —

        * ``u < min(p_gb, p_bg)``: both transitions trigger, so whatever the
          state was it flips (*toggle*);
        * ``min <= u < max``: exactly one transition triggers, so the next
          state is fixed regardless of the current one (*force* to good when
          ``p_bg > p_gb``, to bad otherwise);
        * ``u >= max``: neither triggers (*hold*).

        The state at bit ``i`` is therefore the most recent forced state
        (or the carried-in state when no force occurred yet) XOR the parity
        of the toggles since — all computable with cumulative scans.  The
        random stream is consumed exactly like the per-bit reference loop of
        the test oracle, so both produce bit-identical patterns from the
        same generator state.
        """
        if num_bits < 0:
            raise ConfigurationError("number of bits cannot be negative")
        uniform = self.rng.random(num_bits * 2).reshape(2, num_bits)
        if num_bits == 0:
            return np.zeros(0, dtype=np.uint8)

        p_gb = self.good_to_bad_probability
        p_bg = self.bad_to_good_probability
        low, high = min(p_gb, p_bg), max(p_gb, p_bg)
        transitions = uniform[0]
        toggle = transitions < low
        force = (transitions >= low) & (transitions < high)
        # In the force band exactly the larger-threshold transition fires:
        # good->bad when p_gb is the larger one, bad->good when p_bg is.
        forced_state_is_bad = p_gb > p_bg

        indices = np.arange(num_bits)
        last_force = np.maximum.accumulate(np.where(force, indices, -1))
        toggles_so_far = np.cumsum(toggle)
        # Toggles strictly after the last force (force positions never toggle,
        # so the cumsum at the force index counts only earlier toggles).
        toggles_at_force = toggles_so_far[np.clip(last_force, 0, None)]
        toggles_since = np.where(last_force >= 0, toggles_so_far - toggles_at_force, toggles_so_far)
        base_state = np.where(last_force >= 0, forced_state_is_bad, self._in_bad_state)
        in_bad_state = base_state.astype(bool) ^ (toggles_since % 2).astype(bool)

        probability = np.where(
            in_bad_state, self.bad_error_probability, self.good_error_probability
        )
        self._in_bad_state = bool(in_bad_state[-1])
        return (uniform[1] < probability).astype(np.uint8)

    def error_mask_packed(self, num_blocks: int, *, n: int) -> np.ndarray:
        """Packed ``(num_blocks, ceil(n/64))`` burst XOR mask.

        Identical stream consumption and burst placement as
        ``error_pattern(num_blocks * n)`` (bursts span adjacent blocks in
        row-major transmission order), packed into words.
        """
        if num_blocks < 0:
            raise ConfigurationError("number of blocks cannot be negative")
        pattern = self.error_pattern(num_blocks * n)
        if not pattern.any():
            return np.zeros((num_blocks, words_per_block(n)), dtype=np.uint64)
        return pack_bits(pattern.reshape(num_blocks, n))

    @property
    def expected_ber(self) -> float:
        """Long-run average bit error rate of the two-state chain."""
        p_bad = self.good_to_bad_probability / (
            self.good_to_bad_probability + self.bad_to_good_probability
        )
        return (
            p_bad * self.bad_error_probability
            + (1.0 - p_bad) * self.good_error_probability
        )
