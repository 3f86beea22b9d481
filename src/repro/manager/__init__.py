"""Optical Link Energy/Performance Manager (paper Section III-C).

The paper leaves the manager's implementation "out of scope" but describes
its job precisely: given a communication request with its requirements (BER
target, deadline/priority, power budget), pick the communication scheme
(with or without ECC, and which code) and the laser output power, then
configure both the source and destination interfaces.  This package
implements that decision layer:

* :mod:`repro.manager.pareto` — Pareto-front extraction over
  (communication time, channel power), the structure behind Figure 6b.
* :mod:`repro.manager.policies` — selection policies (minimum power,
  minimum energy per bit, deadline-constrained), the margin ladder and the
  graceful-degradation ladder.
* :mod:`repro.manager.manager` — the runtime manager object handling
  configuration requests for the channels of an interconnect.
* :mod:`repro.manager.runtime` — the adaptive ECC/laser margin controller
  the network simulator consults at run time.
"""

from .pareto import ParetoPoint, pareto_front, dominates
from .policies import (
    ConfigurationDecision,
    DeadlineConstrainedPolicy,
    MinimumEnergyPolicy,
    MinimumPowerPolicy,
    SelectionPolicy,
)
from .manager import CommunicationRequest, LinkConfiguration, OpticalLinkManager

__all__ = [
    "ParetoPoint",
    "pareto_front",
    "dominates",
    "ConfigurationDecision",
    "SelectionPolicy",
    "MinimumPowerPolicy",
    "MinimumEnergyPolicy",
    "DeadlineConstrainedPolicy",
    "CommunicationRequest",
    "LinkConfiguration",
    "OpticalLinkManager",
]
