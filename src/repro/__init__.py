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
``repro.interfaces``    electrical TX/RX interface models (Table I)
``repro.power``         channel, interconnect and energy-per-bit accounting
``repro.manager``       runtime energy/performance manager and policies
``repro.simulation``    fault injection and the bit-level link simulator
``repro.traffic``       synthetic workload generators
``repro.netsim``        discrete-event simulator of the managed ring: MWSR
                        channels, token arbitration, ARQ and faults
``repro.experiments``   one module per table/figure of the paper
"""

import importlib

__version__ = "1.0.0"

#: Every re-export and the submodule that defines it.  The package imports
#: nothing up front: :func:`__getattr__` imports a name's submodule the first
#: time the name is read, so ``import repro`` alone costs no NumPy.
_LAZY_EXPORTS = {
    "DEFAULT_CONFIG": ".config",
    "PaperConfig": ".config",
    "ReproError": ".exceptions",
    "ConfigurationError": ".exceptions",
    "CodingError": ".exceptions",
    "InfeasibleDesignError": ".exceptions",
    "LaserPowerExceededError": ".exceptions",
    "HammingCode": ".coding",
    "ShortenedHammingCode": ".coding",
    "ExtendedHammingCode": ".coding",
    "BCHCode": ".coding",
    "UncodedScheme": ".coding",
    "get_code": ".coding",
    "paper_code_set": ".coding.registry",
    "LinkPowerBudget": ".link",
    "LinkDesignPoint": ".link",
    "OpticalLinkDesigner": ".link",
    "OpticalLinkManager": ".manager",
    "CommunicationRequest": ".manager",
    "MinimumPowerPolicy": ".manager",
    "MinimumEnergyPolicy": ".manager",
    "NetworkSimulator": ".netsim",
    "MicroringResonator": ".photonics",
    "VCSELModel": ".photonics",
    "Photodetector": ".photonics",
    "Waveguide": ".photonics",
    "channel_power_breakdown": ".power",
    "energy_metrics": ".power",
    "interconnect_power_summary": ".power",
}


def __getattr__(name: str):
    """Import a re-export's submodule on first access (PEP 562)."""
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


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
