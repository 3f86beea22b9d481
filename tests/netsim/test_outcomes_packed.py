"""Behaviour of the packed bit-exact outcome sampler.

The sampler draws the attempt's error mask first and short-circuits clean
attempts; these tests pin the fast path (error-free -> everything delivered
clean, no codeword materialised), the slow path (real corruption detected
by the CRC / delivered as residual errors without one), determinism under a
fixed seed, the packed position->mask builder it relies on, and the
rejection of a fault model the sampler cannot draw an error mask from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.crc import CyclicRedundancyCheck
from repro.coding.packed import pack_bits
from repro.coding.registry import get_code
from repro.exceptions import ConfigurationError
from repro.netsim.outcomes import BitExactOutcomeSampler, _packed_mask_from_positions
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel


def _sampler(code_name="H(71,64)", *, ber, crc="crc16-ccitt", seed=123, packet_bits=512):
    rng = np.random.default_rng(seed)
    return BitExactOutcomeSampler(
        get_code(code_name),
        IndependentErrorModel(ber, rng=rng),
        packet_bits=packet_bits,
        crc=CyclicRedundancyCheck.from_name(crc) if crc else None,
        rng=rng,
    )


class TestPackedMaskFromPositions:
    @pytest.mark.parametrize("n", [7, 64, 71, 130])
    def test_matches_pack_bits(self, n):
        rng = np.random.default_rng(n)
        blocks = 40
        bits = np.zeros((blocks, n), dtype=np.uint8)
        flat = rng.choice(blocks * n, size=min(29, blocks * n // 3), replace=False)
        bits.reshape(-1)[flat] = 1
        assert np.array_equal(
            _packed_mask_from_positions(np.sort(flat), blocks, n), pack_bits(bits)
        )


class TestBitExactSampler:
    def test_error_free_attempts_deliver_everything(self):
        sampler = _sampler(ber=0.0)
        outcome = sampler.sample(32)
        assert outcome.packets == 32
        assert outcome.delivered == 32
        assert outcome.failed_detected == 0
        assert outcome.delivered_with_errors == 0
        assert outcome.residual_bit_errors == 0

    def test_seeded_outcomes_are_deterministic(self):
        first = [_sampler(ber=2e-3, seed=9).sample(16) for _ in range(1)][0]
        second = _sampler(ber=2e-3, seed=9).sample(16)
        assert first == second

    def test_crc_detects_heavy_corruption(self):
        outcome = _sampler(ber=0.05).sample(64)
        assert outcome.failed_detected > 0
        assert outcome.packets == 64
        assert outcome.delivered == 64 - outcome.failed_detected

    def test_without_crc_errors_are_delivered(self):
        outcome = _sampler(ber=0.02, crc=None).sample(64)
        assert outcome.failed_detected == 0
        assert outcome.delivered == 64
        assert outcome.delivered_with_errors > 0
        assert outcome.residual_bit_errors >= outcome.delivered_with_errors

    def test_burst_model_rides_the_packed_path(self):
        rng = np.random.default_rng(5)
        sampler = BitExactOutcomeSampler(
            get_code("H(71,64)"),
            BurstErrorModel(
                good_error_probability=0.0,
                bad_error_probability=0.5,
                good_to_bad_probability=0.05,
                bad_to_good_probability=0.1,
                rng=rng,
            ),
            packet_bits=512,
            crc=CyclicRedundancyCheck.from_name("crc16-ccitt"),
            rng=rng,
        )
        outcome = sampler.sample(64)
        assert outcome.packets == 64
        assert outcome.failed_detected > 0

    def test_small_code_with_bit_level_framing(self):
        """H(7,4) frames are not word aligned; the bit path must still work."""
        outcome = _sampler("H(7,4)", ber=5e-3, packet_bits=96).sample(20)
        assert outcome.packets == 20
        assert outcome.delivered + outcome.failed_detected == 20


class _BitMatrixModel:
    """A fault model with only the unpacked ``apply(bits)`` API."""

    expected_ber = 1e-3

    def apply(self, bits):
        return bits


def test_a_fault_model_without_a_mask_api_is_rejected():
    """No error mask means no all-zero-codeword outcome: refuse at construction."""
    with pytest.raises(ConfigurationError, match="_BitMatrixModel"):
        BitExactOutcomeSampler(
            get_code("H(71,64)"), _BitMatrixModel(), packet_bits=512, rng=np.random.default_rng(0)
        )
