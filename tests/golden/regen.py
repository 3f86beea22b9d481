"""Rewrite the golden pins from the current code.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen.py

This script is the only writer of ``tests/golden/pins.json``: the tier-1
test ``test_golden.py`` compares against the pins and never rewrites them.
Regenerate only when a change is meant to move a reproduced number, and say
in the change's notes which rows moved (the failing test lists them).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from golden.canonical import PINS_PATH, SIGNIFICANT_DIGITS, golden_rows, sha256_of  # noqa: E402


def build_pins() -> dict:
    """The pins document of the current code: rows and digests per experiment."""
    from repro.experiments.orchestrator import available_experiments

    experiments = {}
    for name in available_experiments():
        rows = golden_rows(name)
        experiments[name] = {"sha256": sha256_of(rows), "rows": rows}
    return {
        "significant_digits": SIGNIFICANT_DIGITS,
        "sha256": sha256_of({name: pin["rows"] for name, pin in experiments.items()}),
        "experiments": experiments,
    }


def main() -> int:
    pins = build_pins()
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(pins['experiments'])} experiments to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
