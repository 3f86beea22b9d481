"""Golden pins: every experiment's default-option rows, row by row.

Each shipped experiment runs with its default options and its rows are
compared, in the canonical form of :mod:`golden.canonical`, with the rows
pinned in ``pins.json``.  A failure names the experiment, the row and the
columns that moved.  Only ``tests/golden/regen.py`` rewrites the pins.
"""

from __future__ import annotations

import pytest

from golden.canonical import (
    SIGNIFICANT_DIGITS,
    canonical_rows,
    canonical_value,
    golden_rows,
    load_pins,
    sha256_of,
)
from repro.experiments.orchestrator import available_experiments

PINS = load_pins()
PINNED = PINS["experiments"]


def _moved_cells(expected: list, actual: list) -> list:
    """``(row, column, pinned, now)`` of every cell that differs."""
    moved = []
    for index, (old, new) in enumerate(zip(expected, actual)):
        for column in sorted(set(old) | set(new)):
            if old.get(column) != new.get(column):
                moved.append((index, column, old.get(column), new.get(column)))
    return moved


@pytest.mark.parametrize("experiment", sorted(PINNED))
def test_default_rows_match_the_pins(experiment):
    rows = golden_rows(experiment)
    pinned = PINNED[experiment]["rows"]
    assert len(rows) == len(pinned), f"{experiment}: {len(rows)} rows, pinned {len(pinned)}"
    moved = _moved_cells(pinned, rows)
    assert moved == [], f"{experiment}: cells moved (row, column, pinned, now): {moved[:10]}"
    assert sha256_of(rows) == PINNED[experiment]["sha256"]


def test_pins_are_self_consistent():
    assert PINS["significant_digits"] == SIGNIFICANT_DIGITS
    for name, pin in PINNED.items():
        assert sha256_of(pin["rows"]) == pin["sha256"], name
    assert sha256_of({name: pin["rows"] for name, pin in PINNED.items()}) == PINS["sha256"]


def test_every_pinned_experiment_is_shipped():
    assert set(PINNED) <= set(available_experiments())
    assert len(PINNED) == 12


class TestCanonicalForm:
    def test_integers_and_booleans_stay_exact(self):
        assert canonical_value(2**60 + 1) == 2**60 + 1
        assert canonical_value(True) is True

    def test_floats_keep_fixed_significant_digits(self):
        assert canonical_value(1.0 / 3.0) == "3.33333333333e-01"
        assert canonical_value(float("nan")) == "nan"
        assert canonical_value(float("-inf")) == "-inf"

    def test_numpy_scalars_canonicalise_like_python_scalars(self):
        import numpy as np

        row = {"a": np.float64(0.1), "b": np.int64(7), "c": np.bool_(False)}
        assert canonical_rows([row]) == canonical_rows([{"a": 0.1, "b": 7, "c": False}])

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError):
            canonical_value([1, 2])
