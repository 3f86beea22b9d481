"""The bit-exact sampler against the encode round trip of the test oracle.

:class:`~repro.netsim.outcomes.BitExactOutcomeSampler` decodes the error
mask on the all-zero codeword and re-runs the CRC on the residual bits;
:class:`oracle.RoundTripOutcomeSampler` draws real payloads, appends their
CRC, encodes, corrupts, decodes and verifies the received bits.  On every
drawn configuration — code, CRC on or off, packet sizes that are not a
multiple of ``k``, independent or burst faults, a generator shared with the
fault model or not — both must return the same outcome sequence and leave
every generator in the same state.  A whole bit-exact simulation run with
the oracle's sampler in place must also return the same result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import RoundTripOutcomeSampler
from repro.coding.crc import CyclicRedundancyCheck
from repro.coding.registry import get_code
from repro.netsim import engine as netsim_engine
from repro.netsim.engine import NetworkSimulator
from repro.netsim.outcomes import BitExactOutcomeSampler
from repro.simulation.faults import BurstErrorModel, IndependentErrorModel
from repro.traffic.generators import UniformTrafficGenerator

CODES = ("uncoded", "REP(3,1)", "H(7,4)", "H(71,64)", "SECDED(72,64)", "BCH(63,t=2)")
CRCS = (None, "crc4-itu", "crc8", "crc16-ccitt", "crc32")


def _build(sampler_class, config, seed):
    """One sampler plus the generators it draws from."""
    engine_rng = np.random.default_rng(seed)
    fault_rng = engine_rng if config["shared"] else np.random.default_rng(seed + 1)
    if config["model"] == "independent":
        model = IndependentErrorModel(config["ber"], rng=fault_rng)
    else:
        model = BurstErrorModel(
            good_error_probability=config["ber"] / 10.0,
            bad_error_probability=0.3,
            good_to_bad_probability=config["ber"],
            bad_to_good_probability=0.2,
            rng=fault_rng,
        )
    crc = CyclicRedundancyCheck.from_name(config["crc"]) if config["crc"] else None
    sampler = sampler_class(
        get_code(config["code"]),
        model,
        packet_bits=config["packet_bits"],
        crc=crc,
        rng=engine_rng,
    )
    return sampler, engine_rng, fault_rng


@settings(max_examples=120, deadline=None)
@given(
    code=st.sampled_from(CODES),
    crc=st.sampled_from(CRCS),
    packet_bits=st.integers(1, 300),
    model=st.sampled_from(("independent", "burst")),
    shared=st.booleans(),
    ber=st.sampled_from((1e-4, 3e-3, 2e-2, 0.1)),
    attempts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    seed=st.integers(0, 2**31),
)
def test_outcomes_and_streams_equal_the_round_trip(
    code, crc, packet_bits, model, shared, ber, attempts, seed
):
    config = dict(
        code=code, crc=crc, packet_bits=packet_bits, model=model, shared=shared, ber=ber
    )
    candidate, candidate_rng, candidate_faults = _build(BitExactOutcomeSampler, config, seed)
    oracle, oracle_rng, oracle_faults = _build(RoundTripOutcomeSampler, config, seed)
    assert [candidate.sample(size) for size in attempts] == [
        oracle.sample(size) for size in attempts
    ]
    assert candidate_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert candidate_faults.bit_generator.state == oracle_faults.bit_generator.state


@pytest.mark.parametrize("crc", [None, "crc16-ccitt"])
@pytest.mark.parametrize("faults", ["default", "engine-stream", "own-stream"])
def test_a_bit_exact_run_equals_the_round_trip_run(monkeypatch, crc, faults):
    """Whole runs: the default model, and flips on the engine's or their own stream."""
    from repro.manager.manager import OpticalLinkManager

    manager = OpticalLinkManager()
    requests = list(
        UniformTrafficGenerator(8, mean_request_rate_hz=2e7, payload_bits=4096, seed=3).generate(
            150
        )
    )

    def run():
        rng = np.random.default_rng(7)
        fault_model = None
        if faults == "engine-stream":
            fault_model = IndependentErrorModel(3e-3, rng=rng)
        elif faults == "own-stream":
            fault_model = IndependentErrorModel(3e-3, rng=np.random.default_rng(11))
        simulator = NetworkSimulator(
            manager=manager, mode="bit-exact", rng=rng, fault_model=fault_model, crc=crc
        )
        return simulator.run(requests), rng

    result, rng = run()
    monkeypatch.setattr(netsim_engine, "BitExactOutcomeSampler", RoundTripOutcomeSampler)
    reference, reference_rng = run()
    assert result.records == reference.records
    assert result.packets_sent == reference.packets_sent
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if faults != "default":
        # The flips really got past the decoder somewhere.
        assert any(r.attempts > 1 or r.residual_bit_errors for r in result.records)
