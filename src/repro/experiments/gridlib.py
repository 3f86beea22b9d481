"""Shared grid-descriptor helpers.

Experiments whose computation cannot be usefully sharded (Table I, the
device-curve figures, the headline summary, the calibration audit) still
participate in the orchestrator's uniform grid contract: they declare a
single shard whose payload already carries the rendered ``text`` and CSV
``rows``.  The modules alias these two helpers as their ``sweep_shards`` /
``merge_sweep``, keeping every grid descriptor defined in exactly one
place.

Every grid has at most :data:`MAX_GRID_POINTS` points: its shards, or,
where a shard carries a list (``figure5``'s BER chunks, ``figure6b``'s
codes), the entries of those lists.  The shard builders call
:func:`check_grid_size` with their axis product before they build a
single shard: ``rings`` multiplies the network grid and list options
multiply with each other, so one small ``POST /jobs`` body could otherwise
ask the request thread for billions of shards.
"""

from __future__ import annotations

from typing import Sequence

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError

__all__ = ["MAX_GRID_POINTS", "check_grid_size", "single_sweep_shards", "single_merge_sweep"]

#: Most points one grid may have (the default grids have at most 30).
MAX_GRID_POINTS = 10_000


def check_grid_size(experiment: str, points: int) -> None:
    """Reject a grid of more than :data:`MAX_GRID_POINTS` points."""
    if points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"the {experiment} grid would have {points} points; at most {MAX_GRID_POINTS} are allowed"
        )


def single_sweep_shards(
    config: PaperConfig = DEFAULT_CONFIG, options: dict | None = None
) -> list[dict]:
    """Grid descriptor of an indivisible experiment: one parameterless shard."""
    return [{}]


def single_merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig = DEFAULT_CONFIG,
    options: dict | None = None,
) -> tuple[str, list[dict]]:
    """Unwrap the single shard's already-rendered ``(text, rows)`` payload."""
    return payloads[0]["text"], payloads[0]["rows"]
