"""A single MWSR (Multiple Writer Single Reader) channel.

Every ONI except the reader owns a bank of modulators on the channel's
waveguides; the reader owns the drop rings and photodetectors.  The network
simulator arbitrates between the channel's writers.  The laser is sized for
the farthest writer, whose worst-case loss budget is
:class:`repro.link.power_budget.LinkPowerBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from .topology import RingTopology

__all__ = ["MWSRChannel"]


@dataclass
class MWSRChannel:
    """An MWSR channel: one reader ONI, every other ONI writes to it."""

    reader: int
    config: PaperConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    topology: RingTopology = field(init=False)

    def __post_init__(self) -> None:
        self.topology = RingTopology.from_config(self.config)
        if not 0 <= self.reader < self.topology.num_onis:
            raise ConfigurationError(
                f"reader index {self.reader} outside [0, {self.topology.num_onis - 1}]"
            )

    @property
    def writers(self) -> List[int]:
        """Indices of the ONIs writing on this channel."""
        return [i for i in range(self.topology.num_onis) if i != self.reader]
