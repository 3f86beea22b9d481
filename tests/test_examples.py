"""The examples' printed numbers, pinned so an API change cannot drift them.

Examples run as scripts, outside the package; this loads one by path and
checks the figures it prints.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_burst_error_study_residual_bers(capsys):
    _load("interconnect_power_report").burst_error_study()
    lines = capsys.readouterr().out.splitlines()
    assert "  residual BER without interleaving: 2.23e-03" in lines
    assert "  residual BER with a depth-16 interleaver: 1.17e-04" in lines
