"""The one canonical form of an experiment's CSV rows.

The golden pins (``pins.json`` beside this module) hold every shipped
experiment's default-option rows in this form, so a change that moves a
number names the experiment, the row and the column it moved:

* integers and booleans stay exact, strings verbatim;
* floats keep :data:`SIGNIFICANT_DIGITS` significant digits, written as
  ``%.{SIGNIFICANT_DIGITS - 1}e`` text so that the JSON encoder cannot
  reformat them (``nan`` and ``inf`` come out as text too);
* NumPy scalars are unwrapped first, so ``np.float64`` and ``float`` rows
  canonicalise alike.

:func:`canonical_json` is the sorted, separator-free JSON text of the
canonical rows, and :func:`sha256_of` its SHA-256.  Tests import this
module as ``from golden.canonical import ...`` (the ``tests`` directory is
on ``sys.path`` under pytest); ``regen.py`` is the only writer of the pins.
"""

from __future__ import annotations

import hashlib
import json
import os

#: Significant digits a float keeps in canonical form.
SIGNIFICANT_DIGITS = 12

#: The pins file, rewritten only by ``regen.py``.
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def canonical_value(value):
    """Canonical form of one CSV cell."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()  # NumPy scalar -> Python scalar
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return format(value, f".{SIGNIFICANT_DIGITS - 1}e")
    raise TypeError(f"no canonical form for {type(value).__name__} value {value!r}")


def canonical_rows(rows) -> list:
    """Canonical form of an experiment's rows (a list of flat mappings)."""
    return [{str(key): canonical_value(value) for key, value in row.items()} for row in rows]


def canonical_json(value) -> str:
    """Sorted, separator-free JSON text of already-canonical rows."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_of(value) -> str:
    """SHA-256 of :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def golden_rows(experiment: str) -> list:
    """Canonical default-option rows of one experiment, run serially."""
    from repro.experiments.orchestrator import run_experiment

    _, rows = run_experiment(experiment)
    return canonical_rows(rows)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
