"""Report helpers shared by the experiment runner.

Every experiment grid merges into a text report and CSV rows; this module
frames the text as a console section and writes the rows as CSV, the files
``repro-experiments --csv DIR`` leaves (README, "Regenerating the paper").
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Sequence

__all__ = ["rows_to_csv", "section"]


def section(title: str, body: str) -> str:
    """Wrap a body of text in an underlined section header."""
    underline = "=" * len(title)
    return f"{title}\n{underline}\n{body}\n"


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Serialise a list of homogeneous dictionaries to CSV text."""
    if not rows:
        return ""
    fieldnames = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
