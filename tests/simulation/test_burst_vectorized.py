"""Equivalence tests for the vectorized Gilbert-Elliott burst model.

The vectorized :meth:`BurstErrorModel.error_pattern` and the pre-vectorization
per-bit loop (``burst_error_pattern_reference`` of ``tests/simulation/oracle.py``)
consume the random stream identically, so under a fixed seed they must agree bit for bit
— including the hidden Markov state carried across calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from simulation.oracle import burst_error_pattern_reference

from repro.coding.packed import unpack_bits
from repro.exceptions import ConfigurationError
from repro.simulation.faults import BurstErrorModel

PARAMETER_SETS = [
    # The model defaults: rare long-lived bursts.
    {},
    # bad->good threshold below good->bad (the force band forces *bad*).
    {"good_to_bad_probability": 0.3, "bad_to_good_probability": 0.05},
    # Equal transition probabilities: the force band is empty, only toggles.
    {"good_to_bad_probability": 0.1, "bad_to_good_probability": 0.1},
    # Deterministic error emission: the pattern is a pure state readout.
    {
        "good_error_probability": 0.0,
        "bad_error_probability": 1.0,
        "good_to_bad_probability": 0.02,
        "bad_to_good_probability": 0.3,
    },
    # Fast-switching chain.
    {"good_to_bad_probability": 0.45, "bad_to_good_probability": 0.55},
]


def _pair(params: dict, seed: int = 42) -> tuple[BurstErrorModel, BurstErrorModel]:
    return (
        BurstErrorModel(rng=np.random.default_rng(seed), **params),
        BurstErrorModel(rng=np.random.default_rng(seed), **params),
    )


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_fixed_seed_exact_match(self, params):
        vectorized, reference = _pair(params)
        pattern_vec = vectorized.error_pattern(100_000)
        pattern_ref = burst_error_pattern_reference(reference, 100_000)
        assert np.array_equal(pattern_vec, pattern_ref)

    @pytest.mark.parametrize("params", PARAMETER_SETS)
    def test_state_carries_across_calls(self, params):
        # Split the same stream into uneven chunks; state must carry over
        # identically or the later chunks diverge.
        vectorized, reference = _pair(params, seed=7)
        for num_bits in (1, 13, 1000, 0, 4096, 77):
            pattern_vec = vectorized.error_pattern(num_bits)
            pattern_ref = burst_error_pattern_reference(reference, num_bits)
            assert np.array_equal(pattern_vec, pattern_ref), num_bits
            assert vectorized._in_bad_state == reference._in_bad_state

    def test_empty_pattern_consumes_no_state(self):
        vectorized, reference = _pair({}, seed=3)
        assert vectorized.error_pattern(0).size == 0
        assert burst_error_pattern_reference(reference, 0).size == 0
        assert np.array_equal(
            vectorized.error_pattern(500), burst_error_pattern_reference(reference, 500)
        )

    def test_negative_length_rejected_on_both_paths(self):
        model = BurstErrorModel()
        with pytest.raises(ConfigurationError):
            model.error_pattern(-1)
        with pytest.raises(ConfigurationError):
            burst_error_pattern_reference(model, -1)


class TestExpectedBer:
    def test_long_run_average_honors_expected_ber(self):
        model = BurstErrorModel(
            good_error_probability=1e-4,
            bad_error_probability=0.3,
            good_to_bad_probability=0.01,
            bad_to_good_probability=0.2,
            rng=np.random.default_rng(2024),
        )
        pattern = model.error_pattern(2_000_000)
        assert pattern.mean() == pytest.approx(model.expected_ber, rel=0.05)

    def test_error_mask_packed_keeps_bursts_across_blocks(self):
        model = BurstErrorModel(
            good_error_probability=0.0,
            bad_error_probability=0.5,
            good_to_bad_probability=0.002,
            bad_to_good_probability=0.1,
            rng=np.random.default_rng(11),
        )
        mask = model.error_mask_packed(500, n=100)
        assert mask.shape == (500, 2)
        error_positions = np.nonzero(unpack_bits(mask, 100).ravel())[0]
        assert error_positions.size > 10
        # Bursty, not memoryless: consecutive errors cluster tightly.
        assert np.median(np.diff(error_positions)) < 20
