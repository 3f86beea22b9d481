"""Synthetic workloads exercising the managed optical interconnect.

The paper motivates the runtime ECC/laser configuration with two application
classes: real-time traffic (deadlines, favour speed) and multimedia-like
traffic (throughput/energy, tolerate higher CT or degraded BER).  This
package generates such workloads:

* :mod:`repro.traffic.generators` — stochastic traffic generators (uniform
  random, hotspot, bursty/multimedia).
* :mod:`repro.traffic.tasks` — periodic real-time task sets with deadlines.
"""

from .generators import (
    BurstyTrafficGenerator,
    HotspotTrafficGenerator,
    TrafficColumns,
    TrafficRequest,
    UniformTrafficGenerator,
)
from .tasks import PeriodicTask, TaskSet

__all__ = [
    "TrafficColumns",
    "TrafficRequest",
    "UniformTrafficGenerator",
    "HotspotTrafficGenerator",
    "BurstyTrafficGenerator",
    "PeriodicTask",
    "TaskSet",
]
