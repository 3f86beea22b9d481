"""Stdlib-logging plumbing: one handler, shard-index tagging.

All operational messages of the experiment stack flow through module
loggers under the ``"repro"`` namespace (``repro.experiments.orchestrator``
and friends).  :func:`setup_logging` attaches one stderr handler to that
root — report text keeps going to stdout untouched — and
:func:`shard_logging_context` tags every record emitted while a shard
executes with its shard index, so interleaved worker logs stay
attributable.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import sys

__all__ = ["setup_logging", "shard_logging_context"]

#: Shard index of the currently executing shard, or ``None`` outside one.
#: A ``ContextVar`` so the tag follows execution, not a thread or process.
_SHARD_INDEX: contextvars.ContextVar["int | None"] = contextvars.ContextVar(
    "repro_shard_index", default=None
)

_HANDLER_FLAG = "_repro_obs_handler"


class _ShardTagFilter(logging.Filter):
    """Injects ``record.shard_tag`` (``" [shard N]"`` or ``""``)."""

    def filter(self, record: logging.LogRecord) -> bool:
        index = _SHARD_INDEX.get()
        record.shard_tag = f" [shard {index}]" if index is not None else ""
        return True


class _CurrentStderr:
    """File-like proxy resolving ``sys.stderr`` at write time.

    ``logging.StreamHandler`` captures its stream once at construction;
    binding it to this proxy instead keeps the handler pointed at whatever
    ``sys.stderr`` currently is, so redirections (and test capture) applied
    after :func:`setup_logging` still receive the log lines.
    """

    def write(self, text: str) -> int:
        return sys.stderr.write(text)

    def flush(self) -> None:
        sys.stderr.flush()


def setup_logging(level: str = "warning") -> logging.Logger:
    """Configure the ``repro`` logger tree with one tagged stderr handler.

    Idempotent: calling it again only adjusts the level (so tests and
    repeated CLI invocations never stack handlers).
    """
    logger = logging.getLogger("repro")
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger.setLevel(numeric)
    for handler in logger.handlers:
        if getattr(handler, _HANDLER_FLAG, False):
            handler.setLevel(numeric)
            return logger
    handler = logging.StreamHandler(_CurrentStderr())
    handler.setLevel(numeric)
    handler.addFilter(_ShardTagFilter())
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s%(shard_tag)s: %(message)s")
    )
    setattr(handler, _HANDLER_FLAG, True)
    logger.addHandler(handler)
    # Operational logs are the handler's job; never bubble to the root
    # logger where basicConfig'd applications would double-print them.
    logger.propagate = False
    return logger


@contextlib.contextmanager
def shard_logging_context(index: int):
    """Tag every log record emitted in this scope with ``[shard index]``."""
    token = _SHARD_INDEX.set(int(index))
    try:
        yield
    finally:
        _SHARD_INDEX.reset(token)
