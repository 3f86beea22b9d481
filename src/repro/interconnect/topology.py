"""Placement of ONIs on the optical layer.

The paper evaluates a serpentine/ring-style layout where the worst-case
writer-to-reader distance is 6 cm.  The topology object places the ONIs
uniformly along a waveguide loop of that worst-case length.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    num_onis: int = 12
    loop_length_m: float = 0.0654545454545

    def __post_init__(self) -> None:
        if self.num_onis < 2:
            raise ConfigurationError("a ring needs at least two ONIs")
        if self.loop_length_m <= 0:
            raise ConfigurationError("loop length must be positive")

    @classmethod
    def from_config(cls, config: PaperConfig = DEFAULT_CONFIG) -> "RingTopology":
        """Topology whose worst-case writer→reader distance equals the config's.

        With ``N`` uniformly placed ONIs the worst-case downstream path spans
        ``N - 1`` of the ``N`` segments, so the loop is scaled accordingly.
        """
        worst_case = config.waveguide_length_m
        loop = worst_case * config.num_onis / (config.num_onis - 1)
        return cls(num_onis=config.num_onis, loop_length_m=loop)
