"""Record and replay of traffic request traces.

Traces decouple workload generation from simulation: a generator's output
can be recorded once (optionally to a CSV file) and replayed against
different manager policies so comparisons see exactly the same requests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List

from ..exceptions import ConfigurationError
from .generators import TrafficRequest

__all__ = ["TraceRecorder", "replay_trace"]

_FIELDS = [
    "arrival_time_s",
    "source",
    "destination",
    "payload_bits",
    "target_ber",
    "deadline_s",
]


@dataclass
class TraceRecorder:
    """Accumulates traffic requests and serialises them to CSV."""

    requests: List[TrafficRequest] = field(default_factory=list)

    def record(self, request: TrafficRequest) -> None:
        """Append one request to the trace."""
        self.requests.append(request)

    def record_all(self, requests: Iterable[TrafficRequest]) -> None:
        """Append every request of an iterable to the trace."""
        for request in requests:
            self.record(request)

    def __len__(self) -> int:
        return len(self.requests)

    def save(self, path: str | Path) -> None:
        """Write the trace to a CSV file."""
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=_FIELDS)
            writer.writeheader()
            for request in self.requests:
                writer.writerow(
                    {
                        "arrival_time_s": request.arrival_time_s,
                        "source": request.source,
                        "destination": request.destination,
                        "payload_bits": request.payload_bits,
                        "target_ber": request.target_ber,
                        "deadline_s": "" if request.deadline_s is None else request.deadline_s,
                    }
                )

    @classmethod
    def load(cls, path: str | Path) -> "TraceRecorder":
        """Read a trace previously written by :meth:`save`.

        A missing column, a short row, a non-numeric field or a request that
        fails validation raises :class:`ConfigurationError` naming the file
        and the line.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"trace file {path} does not exist")
        recorder = cls()
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            missing = [name for name in _FIELDS if name not in (reader.fieldnames or ())]
            if missing:
                raise ConfigurationError(
                    f"{path}:1: trace header lacks column(s) {', '.join(missing)}"
                )
            for row in reader:
                # DictReader files surplus fields under None and fills
                # missing ones with None.
                if None in row or None in row.values():
                    raise ConfigurationError(
                        f"{path}:{reader.line_num}: trace row does not have "
                        f"the header's {len(reader.fieldnames)} fields"
                    )
                try:
                    request = TrafficRequest(
                        arrival_time_s=float(row["arrival_time_s"]),
                        source=int(row["source"]),
                        destination=int(row["destination"]),
                        payload_bits=int(row["payload_bits"]),
                        target_ber=float(row["target_ber"]),
                        deadline_s=float(row["deadline_s"]) if row["deadline_s"] else None,
                    )
                except (ValueError, ConfigurationError) as error:
                    raise ConfigurationError(
                        f"{path}:{reader.line_num}: malformed trace row: {error}"
                    ) from error
                recorder.record(request)
        return recorder


def replay_trace(trace: TraceRecorder) -> Iterator[TrafficRequest]:
    """Yield the trace's requests in arrival order."""
    for request in sorted(trace.requests, key=lambda r: r.arrival_time_s):
        yield request
