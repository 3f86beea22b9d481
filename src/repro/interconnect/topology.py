"""Placement of ONIs on the optical layer.

The paper evaluates a serpentine/ring-style layout where the worst-case
writer-to-reader distance is 6 cm.  The topology object places the ONIs
uniformly along a waveguide loop of that worst-case length; alternative
spacings can be supplied for floorplan studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError

__all__ = ["RingTopology"]


@dataclass(frozen=True)
class RingTopology:
    """Unidirectional ring of ONIs along a shared waveguide.

    Parameters
    ----------
    num_onis:
        Number of optical network interfaces on the ring.
    loop_length_m:
        Physical length of the full waveguide loop; the worst-case
        writer-to-reader path (one hop short of the full loop) matches the
        paper's 6 cm when the default is used.
    positions_m:
        Optional explicit ONI positions along the loop (monotonically
        increasing, all within the loop length).  Uniform placement is used
        when omitted.
    """

    num_onis: int = 12
    loop_length_m: float = 0.0654545454545
    positions_m: Tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_onis < 2:
            raise ConfigurationError("a ring needs at least two ONIs")
        if self.loop_length_m <= 0:
            raise ConfigurationError("loop length must be positive")
        if self.positions_m is not None:
            if len(self.positions_m) != self.num_onis:
                raise ConfigurationError("positions must list one entry per ONI")
            if any(p < 0 or p >= self.loop_length_m for p in self.positions_m):
                raise ConfigurationError("positions must lie within the loop length")
            if any(b <= a for a, b in zip(self.positions_m, self.positions_m[1:])):
                raise ConfigurationError("positions must be strictly increasing")

    @classmethod
    def from_config(cls, config: PaperConfig = DEFAULT_CONFIG) -> "RingTopology":
        """Topology whose worst-case writer→reader distance equals the config's.

        With ``N`` uniformly placed ONIs the worst-case downstream path spans
        ``N - 1`` of the ``N`` segments, so the loop is scaled accordingly.
        """
        worst_case = config.waveguide_length_m
        loop = worst_case * config.num_onis / (config.num_onis - 1)
        return cls(num_onis=config.num_onis, loop_length_m=loop)
