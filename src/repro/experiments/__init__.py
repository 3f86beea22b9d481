"""Reproduction harness: one module per table/figure of the paper.

Every module exposes a *grid descriptor* (``sweep_shards`` /
``run_sweep_shard`` / ``merge_sweep``) that decomposes the experiment into
independent shards for the orchestrator
(:mod:`repro.experiments.orchestrator`), and the grid descriptor is each
experiment's only entry point: :func:`run_experiment` runs it and returns the
rendered text report and the CSV rows, with helpers comparing the
reproduction to the paper's reported values
(:mod:`repro.experiments.paperdata`).  The indivisible experiments (Table I,
Figures 3/4, headline, calibration) are one shard that calls their
``run_*`` function.  The command-line entry point
:mod:`repro.experiments.runner` regenerates everything — serially or with
``--jobs N`` worker processes, resumable from JSON checkpoints with
``--resume``.  The tier-1 tests check the rows against the paper's values,
and ``perfbench/`` times the whole reproduction end to end.

Experiment index
----------------
======== ==================================================================
table1    Synthesis results of the TX/RX interfaces (Table I)
figure3   Micro-ring transmission spectra in ON/OFF states (Figure 3)
figure4   Laser electrical power vs emitted optical power (Figure 4)
figure5   Laser power vs target BER per coding scheme (Figure 5)
figure6a  Channel power breakdown per wavelength at BER 1e-11 (Figure 6a)
figure6b  Power vs communication-time Pareto trade-off (Figure 6b)
headline  Headline claims: ~50% laser power cut, 92% laser share, 22 W saved
validation Monte-Carlo validation of Eq. 2/3 with the batched link simulator
network   Discrete-event load sweep of the managed ring (pattern x rate x policy)
adaptive  Online adaptive-ECC control vs static worst-case under channel drift
availability Hard-fault tolerance: graceful degradation vs blind retransmission
======== ==================================================================
"""

from .adaptive import AdaptiveSweepResult
from .availability import AvailabilitySweepResult
from .orchestrator import ExperimentGrid, available_experiments, describe_grid, run_experiment
from .table1 import Table1Result, run_table1
from .figure3 import Figure3Result, run_figure3
from .figure4 import Figure4Result, run_figure4
from .figure5 import Figure5Result
from .figure6 import Figure6aResult, Figure6bResult
from .headline import HeadlineResult, run_headline
from .calibration import CalibrationSummary, run_calibration
from .network import NetworkSweepResult
from .validation import ValidationPoint, ValidationResult

__all__ = [
    "ExperimentGrid",
    "available_experiments",
    "describe_grid",
    "run_experiment",
    "Table1Result",
    "run_table1",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "Figure5Result",
    "Figure6aResult",
    "Figure6bResult",
    "HeadlineResult",
    "run_headline",
    "CalibrationSummary",
    "run_calibration",
    "ValidationPoint",
    "ValidationResult",
    "NetworkSweepResult",
    "AdaptiveSweepResult",
    "AvailabilitySweepResult",
]
