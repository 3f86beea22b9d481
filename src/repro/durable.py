"""Durable records: the one on-disk integrity format of the package.

Four kinds of file must survive a crash: the orchestrator's sweep
checkpoints, and the service's job records, result documents and link
design-point cache.  All four share one format, decided here:

* a record is a JSON object written as one ``json.dumps`` line (ASCII,
  newline-terminated); a file is one record (:func:`read_document`) or a
  sequence of them (:func:`read_lines`);
* a record carries a :func:`digest` of the fields it vouches for;
* a whole file is replaced by :func:`write_atomic` (temp file in the same
  directory, then ``os.replace``), so a reader sees the old file or the new
  one, never a mix;
* a damaged file is moved aside by :func:`quarantine` to ``*.corrupt`` and
  never read again; the records that still verify are returned.

A line is damaged unless it is exactly the ``json.dumps`` of the JSON object
it parses to and the caller's verifier accepts it, so a truncation, a bit
flip or appended junk is caught even where the parsed value would survive
(``1e-12`` flipped to ``1E-12``).  Which fields a digest covers, and what a
verified record means, stays with each caller.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import Any, Callable, List, Tuple

__all__ = ["digest", "to_line", "write_atomic", "quarantine", "read_lines", "read_document"]

logger = logging.getLogger("repro.durable")


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON (sorted keys)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def to_line(record: dict) -> str:
    """One record as the line the readers accept."""
    return json.dumps(record) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one step; no temp file survives a failure."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def quarantine(path: str) -> str:
    """Move a damaged file aside (``*.corrupt``); returns the quarantine path.

    The rename keeps the evidence for a post-mortem while guaranteeing the
    next write starts from a fresh file.
    """
    quarantined = path + ".corrupt"
    try:
        os.replace(path, quarantined)
        logger.warning("quarantined damaged file %s -> %s", path, quarantined)
    except OSError:
        # Racing writer or permissions: the reader already ignores it.
        logger.warning("could not quarantine damaged file %s", path)
    return quarantined


def _parse(line: str) -> dict | None:
    """The JSON object ``line`` is the exact encoding of, else ``None``."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or json.dumps(record) != line:
        return None
    return record


def read_lines(path: str, verify: Callable[[int, dict], Any]) -> Tuple[List[Any], bool]:
    """Verified records of a JSON-lines file, in file order, and whether it was damaged.

    ``verify(line_number, record)`` returns what the caller keeps from one
    record, or ``None`` if the record is damaged.  The file is damaged when a
    line is, when it holds no line, or when its last line lacks its newline
    (the next append would fuse onto it).  A damaged file is quarantined,
    and the records that verified are still returned.  A missing or
    unreadable file is ``([], False)``.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return [], False
    # Every line is ASCII, so an undecodable byte only marks its line damaged.
    lines = data.decode("utf-8", errors="replace").split("\n")
    damaged = lines.pop() != "" or not lines
    kept: List[Any] = []
    for number, line in enumerate(lines):
        record = _parse(line)
        value = None if record is None else verify(number, record)
        if value is None:
            damaged = True
        else:
            kept.append(value)
    if damaged:
        quarantine(path)
    return kept, damaged


def read_document(path: str, verify: Callable[[dict], Any]) -> Any:
    """The verified record of a one-record file, or ``None`` if absent or damaged.

    ``verify(record)`` returns what the caller keeps, or ``None`` if the
    record is damaged; damage quarantines the file, as in :func:`read_lines`.
    """
    kept, damaged = read_lines(path, lambda number, record: verify(record) if number == 0 else None)
    return None if damaged or not kept else kept[0]
