"""Pareto-front utilities over (communication time, channel power).

Figure 6b's observation is that, for a given BER target, every coding scheme
is Pareto-optimal: the uncoded link is fastest but hungriest, H(7,4) is the
slowest but (laser-wise) leanest, H(71,64) sits in between.  The helpers
here formalise domination and front extraction so both the figure
reproduction and the runtime manager can use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["ParetoPoint", "dominates", "pareto_front"]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate configuration in the power/performance plane."""

    code_name: str
    target_ber: float
    communication_time: float
    channel_power_w: float

    @property
    def objectives(self) -> tuple[float, float]:
        """The two minimised objectives (communication time, channel power)."""
        return (self.communication_time, self.channel_power_w)


#: Objective differences at or below this count as ties.
_TOLERANCE = 1e-12


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when ``a`` is at least as good as ``b`` everywhere and better somewhere.

    Both objectives (communication time and channel power) are minimised.
    """
    at, ap = a.objectives
    bt, bp = b.objectives
    no_worse = at <= bt + _TOLERANCE and ap <= bp + _TOLERANCE
    strictly_better = at < bt - _TOLERANCE or ap < bp - _TOLERANCE
    return no_worse and strictly_better


def pareto_front(points: Iterable[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset of a point cloud, sorted by communication time."""
    point_list = list(points)
    front = [
        candidate
        for candidate in point_list
        if not any(dominates(other, candidate) for other in point_list)
    ]
    return sorted(front, key=lambda p: (p.communication_time, p.channel_power_w))
