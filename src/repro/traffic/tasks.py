"""Periodic real-time task sets.

Real-time applications issue communications with hard deadlines; the manager
must then bound the communication-time overhead when selecting a coding
scheme.  A :class:`TaskSet` expands periodic tasks into the individual
requests of a simulation window and knows its own utilisation so infeasible
sets can be rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..exceptions import ConfigurationError
from .generators import TrafficRequest

__all__ = ["PeriodicTask", "TaskSet"]


@dataclass(frozen=True)
class PeriodicTask:
    """A periodic communication task (payload every period, due by the deadline)."""

    name: str
    source: int
    destination: int
    period_s: float
    payload_bits: int
    relative_deadline_s: float
    target_ber: float = 1e-11

    def __post_init__(self) -> None:
        # Written so NaN fails every check: ``nan <= 0`` is false.
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ConfigurationError("task period must be positive and finite")
        if not 0 < self.relative_deadline_s <= self.period_s:
            raise ConfigurationError("deadline must lie in (0, period]")
        if self.payload_bits <= 0:
            raise ConfigurationError("payload must contain at least one bit")
        if self.source == self.destination:
            raise ConfigurationError("source and destination must differ")

    def utilisation(self, channel_rate_bits_per_s: float) -> float:
        """Fraction of the channel this task occupies (uncoded payload)."""
        if channel_rate_bits_per_s <= 0:
            raise ConfigurationError("channel rate must be positive")
        return (self.payload_bits / channel_rate_bits_per_s) / self.period_s

    def releases_until(self, horizon_s: float) -> List[float]:
        """Release times of the task instances up to the horizon."""
        if not math.isfinite(horizon_s):
            raise ConfigurationError("horizon must be finite")
        if horizon_s < 0:
            raise ConfigurationError("horizon cannot be negative")
        releases = []
        release = 0.0
        while release < horizon_s:
            releases.append(release)
            release += self.period_s
        return releases


@dataclass
class TaskSet:
    """A collection of periodic tasks sharing the interconnect."""

    tasks: List[PeriodicTask]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigurationError("a task set needs at least one task")
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigurationError("task names must be unique")

    def requests_until(self, horizon_s: float) -> List[TrafficRequest]:
        """Expand the task set into time-ordered traffic requests."""
        requests: List[TrafficRequest] = []
        for task in self.tasks:
            for release in task.releases_until(horizon_s):
                requests.append(
                    TrafficRequest(
                        arrival_time_s=release,
                        source=task.source,
                        destination=task.destination,
                        payload_bits=task.payload_bits,
                        target_ber=task.target_ber,
                        deadline_s=task.relative_deadline_s,
                    )
                )
        return sorted(requests, key=lambda request: request.arrival_time_s)
