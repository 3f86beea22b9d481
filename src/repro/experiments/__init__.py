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

Nothing here is imported up front.  The package's exports resolve on first
access (PEP 562 ``__getattr__`` over ``_LAZY_EXPORTS``), and the
orchestrator lists every experiment by module path and imports that module
the first time its grid is looked up.  Importing this package, the
orchestrator or the runner therefore loads no NumPy and no experiment.

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

import importlib

#: Every re-export and the submodule that defines it, imported by
#: :func:`__getattr__` the first time the name is read: importing the
#: package, the runner or the orchestrator loads no experiment module.
_LAZY_EXPORTS = {
    "ExperimentGrid": ".orchestrator",
    "available_experiments": ".orchestrator",
    "describe_grid": ".orchestrator",
    "run_experiment": ".orchestrator",
    "Table1Result": ".table1",
    "run_table1": ".table1",
    "Figure3Result": ".figure3",
    "run_figure3": ".figure3",
    "Figure4Result": ".figure4",
    "run_figure4": ".figure4",
    "Figure5Result": ".figure5",
    "Figure6aResult": ".figure6",
    "Figure6bResult": ".figure6",
    "HeadlineResult": ".headline",
    "run_headline": ".headline",
    "CalibrationSummary": ".calibration",
    "run_calibration": ".calibration",
    "ValidationPoint": ".validation",
    "ValidationResult": ".validation",
    "NetworkSweepResult": ".network",
    "AdaptiveSweepResult": ".adaptive",
    "AvailabilitySweepResult": ".availability",
}

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


def __getattr__(name: str):
    """Import a re-export's experiment module on first access (PEP 562)."""
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
