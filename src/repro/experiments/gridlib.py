"""Shared grid-descriptor helpers.

Experiments whose computation cannot be usefully sharded (Table I, the
device-curve figures, the headline summary, the calibration audit) still
participate in the orchestrator's uniform grid contract: they declare a
single shard whose payload already carries the rendered ``text`` and CSV
``rows``.  The modules take their ``sweep_shards`` / ``merge_sweep`` from
:func:`single_sweep_shards` and :func:`single_merge_sweep`, keeping every
grid descriptor defined in exactly one place.

Every grid has at most :data:`MAX_GRID_POINTS` points: its shards, or,
where a shard carries a list (``figure5``'s BER chunks, ``figure6b``'s
codes), the entries of those lists.  The shard builders call
:func:`check_grid_size` with their axis product before they build a
single shard: ``rings`` multiplies the network grid and list options
multiply with each other, so one small ``POST /jobs`` body could otherwise
ask the request thread for billions of shards.

Every shipped grid also calls :func:`check_option_names`: an option name
the grid does not read (a typo, a stale key) would otherwise run the
defaults under a grid fingerprint, and a service job id, of its own.  The
grids that take a ``codes`` list resolve every name with
:func:`code_names`, so an unknown code fails when the grid is described
(``POST /jobs`` answers 400), not later in a worker.
"""

from __future__ import annotations

from typing import Callable, Collection, Sequence

from ..config import PaperConfig
from ..exceptions import ConfigurationError

__all__ = [
    "MAX_GRID_POINTS",
    "check_grid_size",
    "check_option_names",
    "code_names",
    "single_sweep_shards",
    "single_merge_sweep",
]

#: Most points one grid may have (the default grids have at most 30).
MAX_GRID_POINTS = 10_000


def check_grid_size(experiment: str, points: int) -> None:
    """Reject a grid of more than :data:`MAX_GRID_POINTS` points."""
    if points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"the {experiment} grid would have {points} points; at most {MAX_GRID_POINTS} are allowed"
        )


def check_option_names(experiment: str, options: dict | None, allowed: Collection[str]) -> None:
    """Reject option names outside ``allowed``, the ones the grid reads."""
    unknown = sorted(set(options or ()) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {experiment} option(s) {unknown}; available: {sorted(allowed)}"
        )


def code_names(experiment: str, options: dict, config: PaperConfig) -> list[str]:
    """The ``codes`` option (default: the paper's set), each distinct name resolved once.

    The code registry (and with it NumPy) is imported here, not with the
    module: the orchestrator imports this module for its size check.
    """
    from ..coding.registry import paper_code_by_name, paper_code_set

    if "codes" not in options:
        return [code.name for code in paper_code_set(config.ip_bus_width_bits)]
    names = options["codes"]
    if isinstance(names, str):
        raise ConfigurationError(f"the {experiment} option 'codes' must be a list of code names")
    names = list(names)
    for name in dict.fromkeys(names):
        paper_code_by_name(name, config.ip_bus_width_bits)
    return names


def single_sweep_shards(experiment: str) -> Callable[..., list[dict]]:
    """Grid descriptor of an indivisible experiment: one shard, no options."""

    def sweep_shards(
        config: PaperConfig, options: dict | None
    ) -> list[dict]:
        check_option_names(experiment, options, ())
        return [{}]

    return sweep_shards


def single_merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Unwrap the single shard's already-rendered ``(text, rows)`` payload."""
    return payloads[0]["text"], payloads[0]["rows"]
