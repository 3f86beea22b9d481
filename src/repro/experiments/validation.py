"""Monte-Carlo validation of the analytic BER chain (batched engine).

The paper's evaluation rests on three analytic relations: the OOK error
probability (Eq. 3), the post-decoding Hamming BER (Eq. 2) and the link SNR
(Eq. 4).  This experiment closes the loop empirically for every scheme of
the paper's code set: it designs operating points at Monte-Carlo-friendly
BER targets, simulates the physical link bit by bit through the batched
:class:`~repro.simulation.linksim.OpticalLinkSimulator`, and compares the
measured raw and post-decoding error rates with the analytic predictions.

Before the array-at-a-time coding engine this validation was too slow to
run as a routine experiment; with batching it simulates hundreds of
thousands of codewords per second, so it is registered alongside the
figure experiments in :mod:`repro.experiments.runner` as ``validation``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from ..coding.registry import paper_code_by_name
from ..coding.theory import output_ber
from ..config import PaperConfig
from ..link.design import OpticalLinkDesigner
from ..simulation.linksim import OpticalLinkSimulator
from .gridlib import check_grid_size, check_option_names, code_names

__all__ = [
    "ValidationPoint",
    "ValidationResult",
    "sweep_shards",
    "run_sweep_shard",
    "merge_sweep",
]

#: Defaults of the sweep's options.
DEFAULT_TARGETS: tuple[float, ...] = (1e-3, 1e-4)
DEFAULT_NUM_BLOCKS = 20000
DEFAULT_SEED = 2024


@dataclass(frozen=True)
class ValidationPoint:
    """Analytic-vs-measured error rates of one (code, target BER) link."""

    code_name: str
    target_ber: float
    analytic_raw_ber: float
    measured_raw_ber: float
    analytic_post_ber: float
    measured_post_ber: float
    blocks_simulated: int

    def as_dict(self) -> dict:
        """Flat dict for CSV export."""
        return {
            "code": self.code_name,
            "target_ber": self.target_ber,
            "analytic_raw_ber": self.analytic_raw_ber,
            "measured_raw_ber": self.measured_raw_ber,
            "analytic_post_ber": self.analytic_post_ber,
            "measured_post_ber": self.measured_post_ber,
            "blocks": self.blocks_simulated,
        }


@dataclass
class ValidationResult:
    """Monte-Carlo validation sweep over the paper's code set."""

    points: List[ValidationPoint]
    num_blocks: int

    def to_rows(self) -> List[dict]:
        """CSV rows for the experiment runner."""
        return [point.as_dict() for point in self.points]

    def render_text(self) -> str:
        """Human-readable validation table."""
        header = (
            f"{'code':<12} {'target':>9} {'raw (Eq.3)':>12} {'raw (sim)':>12} "
            f"{'post (Eq.2)':>12} {'post (sim)':>12}"
        )
        lines = [
            "Monte-Carlo validation of the analytic BER chain "
            f"({self.num_blocks} blocks per point, batched engine)",
            header,
            "-" * len(header),
        ]
        for point in self.points:
            lines.append(
                f"{point.code_name:<12} {point.target_ber:9.0e} "
                f"{point.analytic_raw_ber:12.3e} {point.measured_raw_ber:12.3e} "
                f"{point.analytic_post_ber:12.3e} {point.measured_post_ber:12.3e}"
            )
        lines.append(
            "The simulated raw BER tracks Eq. 3 and the simulated post-decoding "
            "BER tracks Eq. 2 within Monte-Carlo noise."
        )
        return "\n".join(lines)


def _validation_point(
    code,
    target_ber: float,
    *,
    config: PaperConfig,
    num_blocks: int,
    batch_size: int,
    seed: int,
    spawn_index: int,
) -> ValidationPoint:
    """Design, simulate and measure one (code, target BER) link.

    The generator is spawned from ``SeedSequence(seed, spawn_key=(spawn_index,))``,
    so the point's Monte-Carlo outcome depends only on ``(seed, spawn_index)``
    — never on which other points ran before it or in which process — which
    is what lets the parallel orchestrator reproduce the serial report
    byte for byte.
    """
    designer = OpticalLinkDesigner(config=config)
    design = designer.design_point(code, target_ber)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(spawn_index,)))
    simulator = OpticalLinkSimulator(code, design, config=config, rng=rng)
    result = simulator.run(num_blocks, batch_size=batch_size)
    return ValidationPoint(
        code_name=code.name,
        target_ber=float(target_ber),
        analytic_raw_ber=design.raw_channel_ber,
        measured_raw_ber=result.measured_raw_ber,
        analytic_post_ber=float(output_ber(code, design.raw_channel_ber)),
        measured_post_ber=result.measured_post_decoding_ber,
        blocks_simulated=result.blocks_simulated,
    )


# ------------------------------------------------------------------ grid API
def sweep_shards(config: PaperConfig, options: dict | None) -> list[dict]:
    """Grid descriptor: one shard per (target BER, code) Monte-Carlo point.

    ``options`` may override ``targets``, ``codes`` (names), ``num_blocks``,
    ``batch_size`` and ``seed`` (all JSON-serializable); shards carry
    everything a worker needs.  Each (code, target) point runs on its own
    child generator spawned from ``seed``, so the report is reproducible and
    independent of sweep order or parallelism.
    """
    options = options or {}
    check_option_names(
        "validation", options, ("targets", "codes", "num_blocks", "batch_size", "seed")
    )
    targets = options.get("targets", DEFAULT_TARGETS)
    names = code_names("validation", options, config)
    check_grid_size("validation", len(targets) * len(names))
    shards = []
    spawn_index = 0
    for target_ber in targets:
        for name in names:
            shards.append(
                {
                    "code": name,
                    "target_ber": float(target_ber),
                    "num_blocks": int(options.get("num_blocks", DEFAULT_NUM_BLOCKS)),
                    "batch_size": int(options.get("batch_size", 8192)),
                    "seed": int(options.get("seed", DEFAULT_SEED)),
                    "spawn_index": spawn_index,
                }
            )
            spawn_index += 1
    return shards


def run_sweep_shard(params: dict, config: PaperConfig) -> dict:
    """Worker: simulate one (code, target) point; returns a JSON payload."""
    point = _validation_point(
        paper_code_by_name(params["code"], config.ip_bus_width_bits),
        params["target_ber"],
        config=config,
        num_blocks=params["num_blocks"],
        batch_size=params["batch_size"],
        seed=params["seed"],
        spawn_index=params["spawn_index"],
    )
    return asdict(point)


def merge_sweep(
    payloads: Sequence[dict],
    config: PaperConfig,
    options: dict | None,
) -> tuple[str, list[dict]]:
    """Assemble shard payloads into the (text report, CSV rows) pair."""
    options = options or {}
    result = ValidationResult(
        points=[ValidationPoint(**payload) for payload in payloads],
        num_blocks=int(options.get("num_blocks", DEFAULT_NUM_BLOCKS)),
    )
    return result.render_text(), result.to_rows()
