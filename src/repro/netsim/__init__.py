"""Discrete-event network simulation of the managed MWSR ring.

``repro.netsim`` joins the repository's layers into one end-to-end engine:
traffic generators feed per-ONI request arrivals, the OS-level
:class:`~repro.manager.manager.OpticalLinkManager` configures each transfer
(ECC scheme + laser power per policy), round-robin token arbitration among
the writers of each reader's channel resolves MWSR contention, faults
corrupt packets at the operating point's raw BER and CRC-checked ARQ
retransmits what the receiver caught.  The engine is fully
``SeedSequence``-driven (no wall-clock anywhere), so runs are reproducible
and shardable by the sweep orchestrator.

Typical use::

    from repro.netsim import NetworkSimulator
    from repro.traffic.generators import UniformTrafficGenerator

    traffic = UniformTrafficGenerator(12, mean_request_rate_hz=5e8, seed=1)
    sim = NetworkSimulator(seed=2)
    result = sim.run(traffic.generate(2000))
    print(result.metrics().as_dict())

The fast default samples packet outcomes from the decoder's analytic
frame-error probabilities batch-at-a-time (``mode="probabilistic"``); the
bit-exact mode decodes real fault-model error patterns through the packed
coding API for cross-validation, on the all-zero codeword (the decoders and
the CRC are linear, so a packet's residual errors do not depend on its
payload).  The ``network`` experiment
(:mod:`repro.experiments.network`) sweeps traffic pattern x injection rate
x manager policy on top of this engine.
"""

from .dynamics import (
    AgingRampDrift,
    ChannelDriftModel,
    DriftProcess,
    RandomWalkDrift,
    ThermalSinusoidDrift,
    make_drift_model,
)
from .engine import MAX_PAYLOAD_BITS, NetTransferRecord, NetworkResult, NetworkSimulator
from .events import EventKind
from .failures import (
    FAULT_SCENARIOS,
    ChannelFaultTimeline,
    ChannelHealth,
    FaultTransition,
    HardFaultModel,
    make_fault_model,
)
from .metrics import (
    LatencySummary,
    NetworkMetrics,
    nearest_rank_percentile,
)
from .outcomes import (
    BitExactOutcomeSampler,
    ProbabilisticOutcomeSampler,
    TransmissionOutcome,
    packets_for_payload,
)

__all__ = [
    "MAX_PAYLOAD_BITS",
    "NetworkSimulator",
    "NetworkResult",
    "NetTransferRecord",
    "EventKind",
    "LatencySummary",
    "NetworkMetrics",
    "nearest_rank_percentile",
    "TransmissionOutcome",
    "ProbabilisticOutcomeSampler",
    "BitExactOutcomeSampler",
    "packets_for_payload",
    "DriftProcess",
    "ThermalSinusoidDrift",
    "AgingRampDrift",
    "RandomWalkDrift",
    "ChannelDriftModel",
    "make_drift_model",
    "ChannelHealth",
    "FaultTransition",
    "ChannelFaultTimeline",
    "HardFaultModel",
    "make_fault_model",
    "FAULT_SCENARIOS",
]
