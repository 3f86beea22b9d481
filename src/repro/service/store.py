"""Content-addressed, checksummed results store and the design-point cache.

Both tiers are :mod:`repro.durable` records: written atomically, verified
on every read, and quarantined to ``<name>.corrupt`` when damaged.

* :class:`ResultsStore` — one document per sweep fingerprint holding a
  finished job's merged result.  A damaged document (truncation, bit
  flip, garbage) reads as a miss, so the job layer redoes the work instead
  of serving a lie — the same deal the orchestrator's checkpoints make.
* :class:`PersistentDesignCache` — the shared persistent tier of
  :meth:`repro.link.design.OpticalLinkDesigner.design_point`.  An
  append-only JSON-lines file of checksummed ``(key, point)`` records:
  one append per solved point (solves are rare; the same points are
  requested millions of times), every record carries its own checksum, and
  a damaged line costs only that record — the loader salvages the rest,
  quarantines the damaged file and writes the survivors back.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import fields
from typing import Any, Dict, Tuple

from .. import durable

__all__ = ["ResultsStore", "PersistentDesignCache"]

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")


class ResultsStore:
    """Fingerprint-keyed result documents, verified on every read."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()

    def path(self, fingerprint: str) -> str:
        if not _FINGERPRINT_RE.match(fingerprint):
            raise ValueError(f"not a result fingerprint: {fingerprint!r}")
        return os.path.join(self.root, f"{fingerprint}.json")

    @staticmethod
    def _document(fingerprint: str, payload: Any) -> dict:
        return {
            "kind": "result",
            "fingerprint": fingerprint,
            "payload": payload,
            "checksum": durable.digest(payload),
        }

    def put(self, fingerprint: str, payload: Any) -> str:
        """Atomically persist ``payload`` under ``fingerprint``; returns path."""
        path = self.path(fingerprint)
        line = durable.to_line(self._document(fingerprint, payload))
        with self._lock:
            durable.write_atomic(path, line)
        return path

    def get(self, fingerprint: str) -> Any | None:
        """The stored payload, or ``None`` on miss *or damage* (quarantined)."""

        def verify(document: dict) -> dict | None:
            if document == self._document(fingerprint, document.get("payload")):
                return document
            return None

        with self._lock:
            document = durable.read_document(self.path(fingerprint), verify)
        return None if document is None else document["payload"]

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None


class PersistentDesignCache:
    """Durable ``(code, target BER) -> LinkDesignPoint`` cache.

    Implements the pluggable-cache protocol of
    :class:`repro.link.design.OpticalLinkDesigner` (``load``/``store``).
    The in-memory dict fronts the file, so a process pays the disk read
    once at construction; ``store`` appends one checksummed JSON line per
    solved point.  The append is not free next to the solve it memoizes:
    about 50 us against a Hamming solve of about 0.1 ms (a BCH solve,
    with its longer bounded-distance sum, takes about 0.7 ms).
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._points: Dict[Tuple, dict] = {}
        self._load()

    @staticmethod
    def _key_fields(key: Tuple) -> list:
        name, n, k, target_ber = key
        return [str(name), int(n), int(k), float(target_ber)]

    def _load(self) -> None:
        def verify(_number: int, record: dict) -> tuple | None:
            key = record.get("key")
            if (
                not isinstance(key, list)
                or len(key) != 4
                or record != self._record(key, record.get("point"))
            ):
                return None
            name, n, k, target = key
            return (str(name), int(n), int(k), float(target)), record["point"]

        salvaged, damaged = durable.read_lines(self.path, verify)
        points = dict(salvaged)
        if damaged and points:
            # Write the surviving records back so the file is clean again.
            text = "".join(
                durable.to_line(self._record(self._key_fields(key), points[key]))
                for key in sorted(points)
            )
            durable.write_atomic(self.path, text)
        with self._lock:
            self._points = points

    @staticmethod
    def _record(key: list, point: Any) -> dict:
        return {
            "kind": "design-point",
            "key": key,
            "point": point,
            "checksum": durable.digest({"key": key, "point": point}),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    # ------------------------------------------------- designer cache protocol
    def load(self, key: Tuple):
        """The cached design point for ``key``, or ``None`` on miss.

        Imports lazily to keep ``repro.service.store`` importable without
        pulling the photonics stack in (the queue/store tier has no
        designer dependency).
        """
        with self._lock:
            stored = self._points.get((str(key[0]), int(key[1]), int(key[2]), float(key[3])))
        if stored is None:
            return None
        from ..link.design import LinkDesignPoint

        try:
            return LinkDesignPoint(**stored)
        except TypeError:
            # Schema drift (a field was added/renamed): treat as a miss and
            # let the solver repopulate the entry.
            return None

    def store(self, key: Tuple, point) -> None:
        """Append one solved point (no-op if the key is already present)."""
        normalized = (str(key[0]), int(key[1]), int(key[2]), float(key[3]))
        with self._lock:
            if normalized in self._points:
                return
            payload = {f.name: getattr(point, f.name) for f in fields(point)}
            self._points[normalized] = payload
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(durable.to_line(self._record(self._key_fields(normalized), payload)))
