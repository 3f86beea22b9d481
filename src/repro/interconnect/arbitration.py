"""Token-based arbitration of an MWSR channel.

With multiple writers sharing a reader's channel, only one writer may
modulate at a time.  MWSR proposals (e.g. Corona) typically circulate a
token; we model a round-robin token that advances either when the holder
finishes its transfer or when it has nothing to send.  The arbiter is used
by the message-level simulator to account for channel contention, a cost the
paper's analytic evaluation does not include but which matters when the
longer coded transmissions occupy the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..exceptions import ArbitrationError, ConfigurationError

__all__ = ["TokenArbiter", "TOKEN_HOP_TIME_S"]

#: Time the token takes to pass from one writer to the next (s).
TOKEN_HOP_TIME_S = 1e-9


@dataclass
class TokenArbiter:
    """Round-robin token arbitration among the writers of a channel."""

    writers: List[int]

    def __post_init__(self) -> None:
        if not self.writers:
            raise ConfigurationError("an arbiter needs at least one writer")
        if len(set(self.writers)) != len(self.writers):
            raise ConfigurationError("writer identifiers must be unique")
        self._holder_index = 0
        self._busy_until_s = 0.0

    # ------------------------------------------------------------------ operation
    def request(self, writer: int, now_s: float, duration_s: float) -> float:
        """Request the channel for a transfer; returns the grant (start) time.

        The token travels round-robin from its current holder to the
        requesting writer (each hop costs :data:`TOKEN_HOP_TIME_S`); the transfer
        then starts once the channel is free.
        """
        if writer not in self.writers:
            raise ArbitrationError(f"writer {writer} is not attached to this channel")
        if duration_s < 0:
            raise ConfigurationError("transfer duration cannot be negative")
        target_index = self.writers.index(writer)
        hops = (target_index - self._holder_index) % len(self.writers)
        token_arrival = max(now_s, self._busy_until_s) + hops * TOKEN_HOP_TIME_S
        start = max(token_arrival, self._busy_until_s, now_s)
        self._holder_index = target_index
        self._busy_until_s = start + duration_s
        return start
