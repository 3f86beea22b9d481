"""Content-addressed, checksummed results store with quarantine-on-corruption.

Two persistence tiers live here:

* :class:`ResultsStore` — one atomic JSON document per sweep fingerprint
  holding a finished job's merged result.  Every read verifies a SHA-256
  checksum over the canonical payload; a damaged artefact (truncation, bit
  flip, garbage) is quarantined to ``<name>.corrupt`` and reported as a
  miss, so the job layer redoes the work instead of serving a lie — the
  same deal checkpoint v2 made in the orchestrator.
* :class:`PersistentDesignCache` — the shared persistent tier of
  :meth:`repro.link.design.OpticalLinkDesigner.design_point`.  An
  append-only JSON-lines file of checksummed ``(key, point)`` records:
  one append per solved point (solves are rare; the same points are
  requested millions of times), every record carries its own checksum, and
  a damaged line costs only that record — the loader salvages the rest and
  quarantines the damaged file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
from dataclasses import fields
from typing import Any, Dict, Tuple

__all__ = ["ResultsStore", "PersistentDesignCache", "quarantine"]

logger = logging.getLogger("repro.service.store")

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")


def _payload_checksum(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write_json(path: str, document: dict) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def quarantine(path: str) -> str:
    """Move a damaged artefact aside (``*.corrupt``); never re-read it.

    Returns the quarantine path.  Like the orchestrator's checkpoint
    quarantine, the rename keeps the evidence for a post-mortem while
    guaranteeing the next write starts from a fresh file.
    """
    quarantined = path + ".corrupt"
    try:
        os.replace(path, quarantined)
        logger.warning("quarantined damaged artefact %s -> %s", path, quarantined)
    except OSError:
        logger.warning("could not quarantine damaged artefact %s", path)
    return quarantined


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

    def put(self, fingerprint: str, payload: Any) -> str:
        """Atomically persist ``payload`` under ``fingerprint``; returns path."""
        path = self.path(fingerprint)
        document = {
            "kind": "result",
            "fingerprint": fingerprint,
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        with self._lock:
            _atomic_write_json(path, document)
        return path

    def get(self, fingerprint: str) -> Any | None:
        """The stored payload, or ``None`` on miss *or damage* (quarantined)."""
        path = self.path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            return None
        except ValueError:
            with self._lock:
                quarantine(path)
            return None
        if (
            not isinstance(document, dict)
            or document.get("kind") != "result"
            or document.get("fingerprint") != fingerprint
            or document.get("checksum") != _payload_checksum(document.get("payload"))
        ):
            with self._lock:
                quarantine(path)
            return None
        return document["payload"]

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
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return
        damaged = False
        salvaged: Dict[Tuple, dict] = {}
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                damaged = True
                continue
            if (
                not isinstance(record, dict)
                or record.get("kind") != "design-point"
                or not isinstance(record.get("key"), list)
                or len(record["key"]) != 4
                or record.get("checksum")
                != _payload_checksum({"key": record.get("key"), "point": record.get("point")})
            ):
                damaged = True
                continue
            name, n, k, target = record["key"]
            salvaged[(str(name), int(n), int(k), float(target))] = record["point"]
        with self._lock:
            self._points = salvaged
        if damaged:
            quarantine(self.path)
            # Rewrite the surviving records so the file is clean again.
            self._rewrite()

    def _rewrite(self) -> None:
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            lines = [self._record_line(key, self._points[key]) for key in sorted(self._points)]
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, prefix=f".{os.path.basename(self.path)}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line)
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

    def _record_line(self, key: Tuple, point: dict) -> str:
        fields = self._key_fields(key)
        record = {
            "kind": "design-point",
            "key": fields,
            "point": point,
            "checksum": _payload_checksum({"key": fields, "point": point}),
        }
        return json.dumps(record) + "\n"

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
                handle.write(self._record_line(normalized, payload))
