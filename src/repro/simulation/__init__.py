"""Stochastic simulators validating the analytic models.

The paper's evaluation is analytic; these simulators provide the empirical
counterpart used by the validation examples and tests:

* :mod:`repro.simulation.faults` — error-injection models (independent
  flips matching a BSC, and bursty errors that motivate interleaving).
* :mod:`repro.simulation.linksim` — bit-level simulation of one optical
  link: encode, transmit over the OOK/AWGN channel at a given operating
  point, decode, measure the residual BER.

Message-level arbitration, serialisation timing, per-transfer energy and
bit-exact decoding are the network simulator's job (:mod:`repro.netsim`).
"""

from .faults import BurstErrorModel, IndependentErrorModel
from .linksim import LinkSimulationResult, OpticalLinkSimulator

__all__ = [
    "IndependentErrorModel",
    "BurstErrorModel",
    "OpticalLinkSimulator",
    "LinkSimulationResult",
]
