"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Specific subclasses are raised where the failure
mode is meaningful to a user of the public API (e.g. a laser that cannot
deliver the requested optical power, or a BER target that no configuration
can reach).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CodingError",
    "CodewordLengthError",
    "LaserPowerExceededError",
    "InfeasibleDesignError",
    "SimulationError",
    "ShardExecutionError",
    "SweepCancelled",
    "ServiceError",
    "QueueFullError",
    "JobNotFoundError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class CodingError(ReproError):
    """Base class for errors in the ECC substrate."""


class CodewordLengthError(CodingError):
    """A message or codeword does not have the length required by the code."""


class LaserPowerExceededError(ReproError):
    """The required optical output power exceeds the laser's maximum rating.

    This is the error behind the paper's observation that a BER of 1e-12 is
    not reachable without ECC: the required ``OP_laser`` exceeds the maximum
    deliverable optical power (700 uW for the PCM-VCSEL considered).
    """

    def __init__(self, required_w: float, maximum_w: float):
        self.required_w = float(required_w)
        self.maximum_w = float(maximum_w)
        super().__init__(
            f"required laser output power {required_w * 1e6:.1f} uW exceeds the "
            f"maximum deliverable optical power {maximum_w * 1e6:.1f} uW"
        )


class InfeasibleDesignError(ReproError):
    """No operating point satisfies the requested constraints."""


class SimulationError(ReproError):
    """An event handler failed mid-drain in the discrete-event engine.

    Wraps the original error with the failing event's kind, simulation time
    and position in the event stream, so a crash deep inside a controller or
    sampler still says *which* event broke the run.  The event queue itself
    is never left torn: the failing event was already popped, and no handler
    runs after the error surfaces.
    """


class ShardExecutionError(ReproError):
    """A sweep shard failed (worker crash, hang or an in-shard exception).

    Carries the experiment name, the shard's grid index and its parameter
    dict so a pooled sweep's failure names the exact grid point that died
    instead of an anonymous worker traceback.
    """

    def __init__(self, experiment: str, index: int, params: dict, reason: str):
        self.experiment = str(experiment)
        self.index = int(index)
        self.params = dict(params)
        super().__init__(
            f"shard {index} of experiment {experiment!r} failed ({reason}); "
            f"shard params: {self.params!r}"
        )


class SweepCancelled(ReproError):
    """A sweep stopped early because its cancellation hook fired.

    Raised by the orchestrator *after* the final checkpoint write, so every
    shard that completed before the cancellation is recoverable with
    ``resume=True``.  Carries the progress made so callers (the CLI's
    signal handlers, the service supervisor's drain path) can print an
    actionable resume hint.
    """

    def __init__(self, experiment: str, shards_done: int, shards_total: int):
        self.experiment = str(experiment)
        self.shards_done = int(shards_done)
        self.shards_total = int(shards_total)
        super().__init__(
            f"sweep {experiment!r} cancelled after {shards_done}/{shards_total} shards"
        )


class ServiceError(ReproError):
    """Base class for errors raised by the simulation service layer."""


class QueueFullError(ServiceError):
    """The durable job queue is at capacity; the submission was rejected.

    ``retry_after_s`` is the server's backpressure hint (the HTTP layer
    turns it into a ``Retry-After`` header on the 429 response).
    """

    def __init__(self, depth: int, max_depth: int, retry_after_s: float):
        self.depth = int(depth)
        self.max_depth = int(max_depth)
        self.retry_after_s = float(retry_after_s)
        super().__init__(
            f"job queue is full ({depth}/{max_depth}); retry in {retry_after_s:g}s"
        )


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in the queue."""

    def __init__(self, job_id: str):
        self.job_id = str(job_id)
        super().__init__(f"no job {job_id!r}")
