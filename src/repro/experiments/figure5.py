"""Experiment ``figure5``: laser power vs target BER per coding scheme.

Figure 5 sweeps the target BER from 1e-3 to 1e-12 for the 12-ONI,
16-wavelength, 6-cm MWSR channel and plots the per-wavelength electrical
laser power for transmissions without ECC, with H(71,64) and with H(7,4).
The uncoded curve is the highest everywhere and becomes infeasible at
BER = 1e-12 (the required optical power exceeds the 700 uW laser rating);
the coded curves stay feasible across the whole range.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..coding.registry import paper_code_by_name
from ..config import PaperConfig
from ..exceptions import ConfigurationError
from ..link.design import LinkDesignPoint, OpticalLinkDesigner
from .gridlib import check_grid_size, check_option_names, code_names
from .paperdata import Comparison, PAPER_LASER_POWER_MW_AT_1E11

__all__ = [
    "Figure5Result",
    "DEFAULT_BER_GRID",
    "sweep_shards",
    "run_sweep_shard",
    "merge_sweep",
]

#: The BER axis of Figure 5 (decades from 1e-3 down to 1e-12).
DEFAULT_BER_GRID: tuple[float, ...] = tuple(10.0 ** (-e) for e in range(3, 13))

#: Maximum BER points per orchestrator shard: small enough that a dense
#: sweep load-balances across workers, large enough to amortise dispatch.
DEFAULT_SHARD_SIZE = 16


@dataclass
class Figure5Result:
    """Laser power curves per coding scheme over the BER grid."""

    target_bers: tuple[float, ...]
    series: Dict[str, List[LinkDesignPoint]]
    comparisons: List[Comparison] = field(default_factory=list)

    def render_text(self) -> str:
        """Text table of the laser powers over the BER grid."""
        names = list(self.series)
        header = "BER        " + "".join(f"{name:>14s}" for name in names)
        lines = ["Figure 5 - P_laser vs target BER (mW per wavelength)", header]
        for i, ber in enumerate(self.target_bers):
            cells = []
            for name in names:
                point = self.series[name][i]
                cells.append(
                    f"{point.laser_power_mw:14.2f}" if point.feasible else f"{'infeasible':>14s}"
                )
            lines.append(f"{ber:10.0e} " + "".join(cells))
        lines.append("")
        lines.append("Comparison against the paper at BER = 1e-11:")
        lines.extend(c.render() for c in self.comparisons)
        return "\n".join(lines)


def _paper_comparisons(series: Dict[str, List[LinkDesignPoint]]) -> List[Comparison]:
    """Compare the 1e-11 laser powers of a sweep against the paper's values."""
    comparisons: List[Comparison] = []
    for name, reference in PAPER_LASER_POWER_MW_AT_1E11.items():
        if name not in series:
            continue
        try:
            measured = next(
                p.laser_power_mw
                for p in series[name]
                if np.isclose(p.target_ber, 1e-11, rtol=1e-9, atol=0.0)
            )
        except StopIteration:
            continue
        comparisons.append(
            Comparison(
                quantity=f"P_laser at BER 1e-11 [{name}]",
                measured=measured,
                reference=reference,
                unit="mW",
            )
        )
    return comparisons


# ------------------------------------------------------------------ grid API
def sweep_shards(config: PaperConfig, options: dict | None) -> list[dict]:
    """Grid descriptor: shards of (code, BER-chunk) operating-point solves.

    The BER axis of each code is chunked into at most ``shard_size`` points
    per shard, so dense sweeps (the orchestrator benchmark runs hundreds of
    points per code) load-balance across workers.  ``options`` may override
    ``target_bers``, ``codes`` (names) and ``shard_size``.
    """
    options = options or {}
    check_option_names("figure5", options, ("target_bers", "codes", "shard_size"))
    target_bers = [float(ber) for ber in options.get("target_bers", DEFAULT_BER_GRID)]
    names = code_names("figure5", options, config)
    shard_size = int(options.get("shard_size", DEFAULT_SHARD_SIZE))
    if shard_size < 1:
        raise ConfigurationError("the figure5 option 'shard_size' must be at least 1")
    check_grid_size("figure5", len(names) * len(target_bers))
    shards = []
    for name in names:
        for start in range(0, len(target_bers), shard_size):
            shards.append({"code": name, "target_bers": target_bers[start : start + shard_size]})
    return shards


def run_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: solve one code's chunk of operating points; JSON payload."""
    designer = OpticalLinkDesigner(config=config)
    code = paper_code_by_name(params["code"], config.ip_bus_width_bits)
    points = designer.sweep_ber(code, params["target_bers"])
    return {"code": params["code"], "points": [asdict(point) for point in points]}


def merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble shard payloads into the (text report, CSV rows) pair.

    Shards arrive in grid order, so concatenating each code's chunks
    rebuilds each code's series over the whole BER axis.
    """
    options = options or {}
    target_bers = tuple(float(ber) for ber in options.get("target_bers", DEFAULT_BER_GRID))
    series: Dict[str, List[LinkDesignPoint]] = {}
    for payload in payloads:
        series.setdefault(payload["code"], []).extend(
            LinkDesignPoint(**point) for point in payload["points"]
        )
    result = Figure5Result(
        target_bers=target_bers, series=series, comparisons=_paper_comparisons(series)
    )
    rows = [
        {
            "code": name,
            "target_ber": point.target_ber,
            "op_laser_uw": point.laser_output_power_uw,
            "p_laser_mw": point.laser_power_mw,
            "feasible": point.feasible,
        }
        for name, points in result.series.items()
        for point in points
    ]
    return result.render_text(), rows
