"""repro — reproduction of "Energy and Performance Trade-off in Nanophotonic
Interconnects using Coding Techniques" (Killian et al., DAC 2017).

The package models an optical network-on-chip (MWSR channels built from
on-chip VCSELs, micro-ring modulators, waveguides and photodetectors) whose
laser output power is co-designed with an error-correcting code applied in
the electrical domain: accepting raw channel errors that the code will
correct lets the laser run at a much lower power for the same post-decoding
bit error rate.

Typical use::

    from repro import OpticalLinkDesigner, paper_code_set

    designer = OpticalLinkDesigner()
    for code in paper_code_set():
        point = designer.design_point(code, target_ber=1e-11)
        print(code.name, point.laser_power_mw, "mW")

Sub-packages
------------
``repro.coding``        error-correction codes and their analysis
``repro.channel``       BER/SNR mathematics and stochastic channels
``repro.photonics``     device models (rings, lasers, detectors, waveguides)
``repro.link``          MWSR power budget and operating-point design
``repro.interconnect``  ring topology, MWSR channels and token arbitration
``repro.interfaces``    electrical TX/RX interface models (Table I)
``repro.power``         channel, interconnect and energy-per-bit accounting
``repro.manager``       runtime energy/performance manager and policies
``repro.simulation``    fault injection and the bit-level link simulator
``repro.traffic``       synthetic workload generators
``repro.netsim``        discrete-event network simulator of the managed ring
``repro.experiments``   one module per table/figure of the paper
"""

from .config import DEFAULT_CONFIG, PaperConfig
from .exceptions import (
    CodingError,
    ConfigurationError,
    InfeasibleDesignError,
    LaserPowerExceededError,
    ReproError,
)
from .coding import (
    BCHCode,
    ExtendedHammingCode,
    HammingCode,
    ShortenedHammingCode,
    UncodedScheme,
    get_code,
)
from .coding.registry import paper_code_set
from .link import LinkDesignPoint, LinkPowerBudget, OpticalLinkDesigner
from .manager import (
    CommunicationRequest,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
    OpticalLinkManager,
)
from .netsim import NetworkSimulator
from .photonics import MicroringResonator, Photodetector, VCSELModel, Waveguide
from .power import channel_power_breakdown, energy_metrics, interconnect_power_summary

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "PaperConfig",
    "ReproError",
    "ConfigurationError",
    "CodingError",
    "InfeasibleDesignError",
    "LaserPowerExceededError",
    "HammingCode",
    "ShortenedHammingCode",
    "ExtendedHammingCode",
    "BCHCode",
    "UncodedScheme",
    "get_code",
    "paper_code_set",
    "LinkPowerBudget",
    "LinkDesignPoint",
    "OpticalLinkDesigner",
    "OpticalLinkManager",
    "CommunicationRequest",
    "MinimumPowerPolicy",
    "MinimumEnergyPolicy",
    "NetworkSimulator",
    "MicroringResonator",
    "VCSELModel",
    "Photodetector",
    "Waveguide",
    "channel_power_breakdown",
    "energy_metrics",
    "interconnect_power_summary",
    "__version__",
]
