"""Parallel sweep orchestrator: shard, fan out, checkpoint, merge.

Every experiment module exposes a *grid descriptor* — three functions that
decompose its sweep into independent, JSON-serializable shards:

* ``sweep_shards(config, options)`` lists the shard parameter dicts (the
  grid: BER chunks for Figure 5, (code, target) Monte-Carlo points for the
  validation sweep, a single ``{}`` for indivisible experiments);
* ``run_sweep_shard(params, config)`` computes one shard and returns a
  JSON payload;
* ``merge_sweep(payloads, config, options)`` assembles the ordered payloads
  into the final ``(text report, CSV rows)`` pair.

:func:`run_experiment` drives those descriptors either serially or through
a process pool (``jobs > 1``).  Three properties make the parallel run
byte-identical to the serial one:

1. shards never share state — stochastic shards rebuild their generator
   from ``SeedSequence(seed, spawn_key=(index,))``, the child that
   ``SeedSequence(seed).spawn`` would hand out at that index, so the outcome
   depends only on the grid position, not on scheduling;
2. payloads are reduced to plain JSON types the moment they are produced,
   so the in-process, pickled-over-a-pipe and reloaded-from-checkpoint
   paths all carry exactly the same values (JSON round-trips floats
   losslessly);
3. merging consumes payloads in grid order regardless of completion order.

When a ``checkpoint_dir`` is given, completed shards are flushed to
``<dir>/<experiment>.json`` (atomically, after every shard) together with a
fingerprint of the grid and the :class:`~repro.config.PaperConfig` it ran
under; ``resume=True`` reloads any checkpoint whose fingerprint still
matches and only runs the missing shards.  An interrupted
eight-hour sweep therefore restarts where it stopped, and a finished one
merges instantly.

The registry lists each shipped experiment by module path and imports that
module the first time its grid is looked up, so listing the experiments
imports none of them.  :func:`describe_grid` looks the grid up in the
parent before a pool forks, so workers inherit the imported module and any
grid registered with :func:`register_experiment`.  A process that forks
while other threads may be importing (the service) calls
:func:`import_all_grids` before it starts them.  ``multiprocessing`` and
``concurrent.futures`` are imported only by the pooled path.

The pooled path is additionally hardened against the two ways long sweeps
die in practice:

* **worker death** (OOM killer, segfault, operator ``kill -9``) breaks the
  process pool; the orchestrator rebuilds it, charges every interrupted
  shard one attempt and re-runs them — shard seeds are position-keyed, so a
  re-run is byte-identical to an uninterrupted one;
* **worker hangs** are bounded by an optional per-shard wall-clock timeout
  (``shard_timeout_s``): overdue workers are terminated, the overdue shards
  charged an attempt and requeued, innocent in-flight shards requeued for
  free.

A shard whose attempts exceed ``max_shard_retries``, or that raises a
deterministic exception, aborts the sweep with a
:class:`~repro.exceptions.ShardExecutionError` naming the failing shard's
parameters.  Checkpoints are :mod:`repro.durable` JSON-lines files
(header + one checksummed record per shard); a truncated or bit-flipped
checkpoint is quarantined (renamed to ``*.corrupt``) and its surviving
records resumed.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import logging
import os
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple, Union

from .. import durable
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError, ShardExecutionError, SweepCancelled
from ..obs import manifest as obs_manifest
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.logutil import shard_logging_context
from .gridlib import MAX_GRID_POINTS, check_grid_size

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "GridFunctions",
    "ExperimentGrid",
    "SweepProgress",
    "available_experiments",
    "describe_grid",
    "import_all_grids",
    "register_experiment",
    "run_experiment",
    "checkpoint_path",
]

logger = logging.getLogger("repro.experiments.orchestrator")


@dataclass(frozen=True)
class SweepProgress:
    """One progress heartbeat, emitted after every shard that lands.

    ``events_processed`` sums the ``netsim.events.total`` counters of the
    shard snapshots collected so far (zero when metric collection is off or
    the experiment runs no simulator), so a consumer can derive an events/s
    rate; ``elapsed_s`` is monotonic time since the sweep started;
    ``retries`` counts the failed attempts (worker deaths, timeouts)
    charged so far, which the ETA must account for — their wall-clock cost
    sits in ``elapsed_s`` without producing a shard.
    """

    experiment: str
    shards_total: int
    shards_done: int
    shards_resumed: int
    events_processed: int
    elapsed_s: float
    retries: int = 0

    @property
    def eta_s(self) -> float | None:
        """Remaining-time estimate from the mean *attempt* rate so far.

        ``None`` means "no basis for an estimate yet": nothing has executed
        in this process (everything done so far was resumed from a
        checkpoint) or no time has elapsed.  A finished sweep reports
        ``0.0`` even when every shard was resumed.  Failed attempts count
        in the denominator — they consumed elapsed time like a completed
        shard did — so a sweep that retried heavily projects the per-attempt
        cost instead of inflating the per-success cost (the pre-fix skew).
        """
        remaining = self.shards_total - self.shards_done
        if remaining <= 0:
            return 0.0
        fresh = self.shards_done - self.shards_resumed
        if fresh <= 0 or self.elapsed_s <= 0.0:
            return None
        attempts = fresh + max(0, self.retries)
        return remaining * (self.elapsed_s / attempts)


@dataclass(frozen=True)
class GridFunctions:
    """The three grid-descriptor callables of one experiment."""

    shards: Callable[..., List[dict]]
    run_shard: Callable[..., dict]
    merge: Callable[..., tuple]


#: A shipped grid before its first lookup: the module path and the attribute
#: names of its ``(shards, run_shard, merge)`` functions.
_GridEntry = Tuple[str, str, str, str]

#: Registry mapping experiment names to their grid descriptors.  A shipped
#: experiment is listed by module path until its first lookup
#: (:func:`_grid_functions`) imports the module and stores its functions.
_GRIDS: Dict[str, Union[GridFunctions, _GridEntry]] = {
    "table1": ("repro.experiments.table1", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "validation": (
        "repro.experiments.validation", "sweep_shards", "run_sweep_shard", "merge_sweep"
    ),
    "figure3": ("repro.experiments.figure3", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "figure4": ("repro.experiments.figure4", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "figure5": ("repro.experiments.figure5", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "figure6a": (
        "repro.experiments.figure6",
        "figure6a_sweep_shards",
        "run_figure6a_sweep_shard",
        "merge_figure6a_sweep",
    ),
    "figure6b": (
        "repro.experiments.figure6",
        "figure6b_sweep_shards",
        "run_figure6b_sweep_shard",
        "merge_figure6b_sweep",
    ),
    "headline": ("repro.experiments.headline", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "calibration": (
        "repro.experiments.calibration", "sweep_shards", "run_sweep_shard", "merge_sweep"
    ),
    "network": ("repro.experiments.network", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "adaptive": ("repro.experiments.adaptive", "sweep_shards", "run_sweep_shard", "merge_sweep"),
    "availability": (
        "repro.experiments.availability", "sweep_shards", "run_sweep_shard", "merge_sweep"
    ),
}


def available_experiments() -> list[str]:
    """Sorted names of the experiments the orchestrator can run."""
    return sorted(_GRIDS)


def register_experiment(name: str, functions: GridFunctions, *, replace: bool = False) -> None:
    """Register an extra grid descriptor under ``name``.

    Meant for test harnesses and out-of-tree experiments.  Workers dispatch
    shards by experiment name through this registry, so with the default
    ``fork`` start method a registration made before the pool spins up is
    visible inside the workers too.
    """
    if name in _GRIDS and not replace:
        raise ConfigurationError(f"experiment {name!r} is already registered")
    _GRIDS[name] = functions


def import_all_grids() -> None:
    """Import the module of every registered grid now.

    A process that forks while other threads run calls this before it starts
    them: a fork that lands while another thread is partway through an
    import leaves that module's import lock held in the child by a thread
    the child does not have.
    """
    for name in list(_GRIDS):
        _grid_functions(name)


@dataclass(frozen=True)
class ExperimentGrid:
    """A fully described sweep: the shard list plus its identity fingerprint."""

    experiment: str
    shard_params: tuple
    options: dict | None
    #: The configuration the shards run under.  Not part of
    #: :attr:`fingerprint` (service job ids key on that); a checkpoint keys
    #: on both (:attr:`checkpoint_fingerprint`).
    config: PaperConfig

    @property
    def fingerprint(self) -> str:
        """Hash identifying the grid: experiment, shards and options."""
        return durable.digest(
            {
                "experiment": self.experiment,
                "shards": list(self.shard_params),
                "options": self.options,
            }
        )

    @property
    def checkpoint_fingerprint(self) -> str:
        """Hash of the grid and its config; a checkpoint is only valid if it matches."""
        return durable.digest({"grid": self.fingerprint, "config": asdict(self.config)})


def describe_grid(
    experiment: str,
    config: PaperConfig = DEFAULT_CONFIG,
    options: dict | None = None,
) -> ExperimentGrid:
    """Build the grid descriptor of one experiment (without running it).

    An option value of the wrong type or form (``float("x")``,
    ``int([])``, ``int(1e400)``) raises :class:`ConfigurationError`, like an
    unknown option or a grid of more than
    :data:`~repro.experiments.gridlib.MAX_GRID_POINTS` points does.  The
    shipped grids check their size before they build a shard; a registered
    grid that yields its shards is cut off one past the cap.
    """
    functions = _grid_functions(experiment)
    try:
        shards = tuple(
            _jsonable(params)
            for params in itertools.islice(functions.shards(config, options), MAX_GRID_POINTS + 1)
        )
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"invalid options for {experiment!r}: {error}") from None
    check_grid_size(experiment, len(shards))
    return ExperimentGrid(experiment=experiment, shard_params=shards, options=options, config=config)


def checkpoint_path(checkpoint_dir: str, experiment: str) -> str:
    """Location of one experiment's checkpoint inside a checkpoint directory."""
    return os.path.join(checkpoint_dir, f"{experiment}.json")


def run_experiment(
    experiment: str,
    *,
    config: PaperConfig = DEFAULT_CONFIG,
    jobs: int = 1,
    options: dict | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    shard_timeout_s: float | None = None,
    max_shard_retries: int = 2,
    manifest_dir: str | None = None,
    progress: "Callable[[SweepProgress], None] | None" = None,
    cancel: "Callable[[], bool] | None" = None,
) -> tuple[str, list[dict]]:
    """Run one experiment's full grid and return ``(text report, CSV rows)``.

    Parameters
    ----------
    experiment:
        A name from :func:`available_experiments`.
    config:
        Evaluation parameters; must be picklable when ``jobs > 1``.
    jobs:
        Number of worker processes.  ``1`` (the default) runs the shards
        in-process; the report is byte-identical either way.
    options:
        Experiment-specific grid overrides (e.g. ``{"target_bers": [...]}``
        for ``figure5``); must be JSON-serializable since they are part of
        the checkpoint fingerprint.
    checkpoint_dir:
        When given, completed shards are persisted there after every shard,
        so an interrupted sweep loses at most one shard of work.
    resume:
        Reuse the payloads of a matching checkpoint and run only the
        missing shards.  Requires ``checkpoint_dir``.
    shard_timeout_s:
        Pooled runs only: wall-clock budget per shard attempt.  Overdue
        workers are terminated and their shards retried on a fresh pool.
    max_shard_retries:
        Pooled runs only: how many times one shard may be re-attempted
        after its worker died or timed out before the sweep aborts with a
        :class:`~repro.exceptions.ShardExecutionError`.
    manifest_dir:
        When given, each shard collects a metrics snapshot (an isolated
        registry scoped around the shard, so collection never perturbs
        shard results) and a run manifest (provenance record + exactly
        merged shard metrics; see :mod:`repro.obs.manifest`) is written
        there after the sweep completes.
    progress:
        Callback invoked with a :class:`SweepProgress` after every shard
        that lands (and once for the resumed batch).
    cancel:
        Cooperative cancellation hook, polled between shards (serial) or
        between pool waits (pooled).  When it returns true the sweep stops
        cleanly: in-flight work is abandoned, the checkpoint holds every
        shard that landed, and :class:`~repro.exceptions.SweepCancelled`
        is raised — rerunning with ``resume=True`` picks up exactly where
        the cancellation struck.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    if resume and checkpoint_dir is None:
        raise ConfigurationError("resume requires a checkpoint directory")
    if shard_timeout_s is not None and shard_timeout_s <= 0.0:
        raise ConfigurationError("shard timeout must be positive")
    if max_shard_retries < 0:
        raise ConfigurationError("shard retry budget cannot be negative")
    functions = _grid_functions(experiment)
    grid = describe_grid(experiment, config, options)
    collect = manifest_dir is not None
    wall_start = time.perf_counter()
    cpu_start = _cpu_seconds()

    completed: Dict[int, Any] = {}
    if resume and checkpoint_dir is not None:
        completed = _load_checkpoint(checkpoint_dir, grid)
        if completed:
            logger.info(
                "%s: resumed %d/%d shards from checkpoint",
                experiment,
                len(completed),
                len(grid.shard_params),
            )
    resumed = sorted(completed)
    pending = [index for index in range(len(grid.shard_params)) if index not in completed]
    #: Shard index -> metrics snapshot (``None`` for resumed shards, whose
    #: execution was never observed).
    shard_metrics: Dict[int, dict | None] = {index: None for index in resumed}
    stats = {
        "shards_total": len(grid.shard_params),
        "shards_completed": 0,
        "shards_resumed": len(resumed),
        "retries": 0,
        "timeouts": 0,
        "pool_rebuilds": 0,
        "checkpoint_writes": 0,
        "checkpoint_bytes": 0,
    }
    _notify_progress(progress, grid, stats, shard_metrics, wall_start)

    if jobs == 1 or len(pending) <= 1:
        for index in pending:
            if cancel is not None and cancel():
                raise SweepCancelled(
                    experiment,
                    stats["shards_completed"] + stats["shards_resumed"],
                    len(grid.shard_params),
                )
            payload, snapshot = _execute_shard(
                experiment, grid.shard_params[index], config, index=index, collect=collect
            )
            completed[index] = payload
            shard_metrics[index] = snapshot
            stats["shards_completed"] += 1
            logger.debug("%s: shard %d landed", experiment, index)
            if checkpoint_dir is not None:
                _write_checkpoint(checkpoint_dir, grid, completed, stats)
            _notify_progress(progress, grid, stats, shard_metrics, wall_start)
    else:
        _run_shards_pooled(
            grid,
            pending,
            completed,
            config,
            jobs,
            checkpoint_dir,
            shard_timeout_s=shard_timeout_s,
            max_shard_retries=max_shard_retries,
            collect=collect,
            shard_metrics=shard_metrics,
            stats=stats,
            progress=progress,
            wall_start=wall_start,
            cancel=cancel,
        )

    payloads = [completed[index] for index in range(len(grid.shard_params))]
    merged = functions.merge(payloads, config, options)
    parent_registry = obs_metrics.ACTIVE
    if parent_registry is not None:
        _publish_orchestrator_stats(parent_registry, stats)
    if manifest_dir is not None:
        _write_run_manifest(
            manifest_dir,
            grid,
            shard_metrics,
            resumed=resumed,
            stats=stats,
            invocation={
                "jobs": jobs,
                "resume": bool(resume),
                "checkpointed": checkpoint_dir is not None,
            },
            timing={
                "wall_s": round(time.perf_counter() - wall_start, 6),
                "cpu_s": round(_cpu_seconds() - cpu_start, 6),
            },
        )
    return merged


# ------------------------------------------------------------------ internals
def _grid_functions(experiment: str) -> GridFunctions:
    """The grid of ``experiment``, importing a shipped grid's module on first use."""
    try:
        entry = _GRIDS[experiment]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; available: {available_experiments()}"
        ) from None
    if isinstance(entry, GridFunctions):
        return entry
    module_path, *names = entry
    module = importlib.import_module(module_path)
    functions = GridFunctions(*(getattr(module, name) for name in names))
    _GRIDS[experiment] = functions
    return functions


def _execute_shard(
    experiment: str,
    params: dict,
    config: PaperConfig,
    index: int = 0,
    collect: bool = False,
) -> tuple[Any, dict | None]:
    """Worker entry point: run one shard and reduce it to JSON types.

    Module-level so it pickles by reference into worker processes, which
    re-import this module and dispatch through the same registry.  Returns
    ``(payload, metrics snapshot or None)`` — the snapshot is a side
    channel that never enters the payload, so checkpoints stay
    byte-identical whether collection is on or off.  Each shard observes an
    isolated registry (scoped via :func:`repro.obs.metrics.collecting`), so
    serial and pooled runs produce the same per-shard snapshots.
    """
    tracer = obs_tracing.ACTIVE
    span = (
        tracer.span("orchestrator.shard", experiment=experiment, index=index)
        if tracer is not None
        else contextlib.nullcontext()
    )
    with shard_logging_context(index), span:
        if not collect:
            return _jsonable(_grid_functions(experiment).run_shard(params, config)), None
        with obs_metrics.collecting() as registry:
            payload = _jsonable(_grid_functions(experiment).run_shard(params, config))
        return payload, registry.snapshot()


def _cpu_seconds() -> float:
    """Process CPU time including reaped children (pooled shard workers)."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _notify_progress(
    progress: "Callable[[SweepProgress], None] | None",
    grid: ExperimentGrid,
    stats: Dict[str, int],
    shard_metrics: Dict[int, dict | None],
    wall_start: float,
) -> None:
    if progress is None:
        return
    events = 0
    for snapshot in shard_metrics.values():
        if snapshot is not None:
            events += snapshot.get("counters", {}).get("netsim.events.total", 0)
    progress(
        SweepProgress(
            experiment=grid.experiment,
            shards_total=len(grid.shard_params),
            shards_done=stats["shards_completed"] + stats["shards_resumed"],
            shards_resumed=stats["shards_resumed"],
            events_processed=events,
            elapsed_s=time.perf_counter() - wall_start,
            retries=stats.get("retries", 0),
        )
    )


def _publish_orchestrator_stats(registry, stats: Dict[str, int]) -> None:
    """Fold one sweep's lifecycle accounting into an ambient registry."""
    registry.inc("orchestrator.sweeps")
    for name in (
        "shards_completed",
        "shards_resumed",
        "retries",
        "timeouts",
        "pool_rebuilds",
        "checkpoint_writes",
        "checkpoint_bytes",
    ):
        registry.inc(f"orchestrator.{name}", stats[name])


def _write_run_manifest(
    manifest_dir: str,
    grid: ExperimentGrid,
    shard_metrics: Dict[int, dict | None],
    *,
    resumed: Sequence[int],
    stats: Dict[str, int],
    invocation: dict,
    timing: dict,
) -> str:
    manifest = obs_manifest.build_manifest(
        experiment=grid.experiment,
        fingerprint=grid.fingerprint,
        options=grid.options,
        shard_params=list(grid.shard_params),
        shard_metrics=shard_metrics,
        resumed=resumed,
        invocation=invocation,
        orchestrator=dict(stats),
        timing=timing,
    )
    path = obs_manifest.manifest_path(manifest_dir, grid.experiment)
    tracer = obs_tracing.ACTIVE
    if tracer is None:
        obs_manifest.write_manifest(path, manifest)
    else:
        with tracer.span("orchestrator.manifest_write", experiment=grid.experiment):
            obs_manifest.write_manifest(path, manifest)
    logger.info("%s: run manifest written to %s", grid.experiment, path)
    return path


def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        # Fork keeps worker start-up in the millisecond range (no numpy
        # re-import), which is what makes parallelism pay off even for
        # sub-second analytic sweeps.
        return multiprocessing.get_context("fork")
    return None


def _terminate_pool_workers(pool: "ProcessPoolExecutor") -> None:
    """Forcibly kill a pool's workers (a hung worker never exits by itself)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:  # already gone
            pass


def _charge_attempt(
    attempts: Dict[int, int],
    index: int,
    grid: ExperimentGrid,
    max_shard_retries: int,
    reason: str,
) -> None:
    """Charge one failed attempt against a shard's retry budget."""
    attempts[index] = attempts.get(index, 0) + 1
    if attempts[index] > max_shard_retries:
        raise ShardExecutionError(
            grid.experiment,
            index,
            grid.shard_params[index],
            f"{reason}; gave up after {max_shard_retries} retries",
        )


def _run_shards_pooled(
    grid: ExperimentGrid,
    pending: Sequence[int],
    completed: Dict[int, Any],
    config: PaperConfig,
    jobs: int,
    checkpoint_dir: str | None,
    *,
    shard_timeout_s: float | None,
    max_shard_retries: int,
    collect: bool,
    shard_metrics: Dict[int, "dict | None"],
    stats: Dict[str, int],
    progress: "Callable[[SweepProgress], None] | None",
    wall_start: float,
    cancel: "Callable[[], bool] | None",
) -> None:
    """Fan the pending shards out over a process pool, checkpointing as they land.

    At most ``workers`` shards are in flight at once (a sliding window, so
    a shard's wall-clock age is the age of its *own* attempt, not of the
    whole submission batch).  A broken pool (worker death) or an overdue
    shard rebuilds the pool and requeues the interrupted work; shard seeds
    are position-keyed, so re-runs are byte-identical.  Deterministic
    in-shard exceptions abort immediately — retrying cannot change them.
    Only this path imports ``multiprocessing`` and ``concurrent.futures``.
    """
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait

    queue = deque(sorted(pending))
    attempts: Dict[int, int] = {}
    workers = min(jobs, len(queue))
    context = _pool_context()
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    in_flight: Dict[Any, tuple[int, float]] = {}
    try:
        while queue or in_flight:
            if cancel is not None and cancel():
                # Abandon in-flight work without waiting for it: the last
                # checkpoint already holds every landed shard, and hung
                # workers must not be able to stall the drain.
                _terminate_pool_workers(pool)
                raise SweepCancelled(
                    grid.experiment,
                    stats["shards_completed"] + stats["shards_resumed"],
                    len(grid.shard_params),
                )
            while queue and len(in_flight) < workers:
                index = queue.popleft()
                future = pool.submit(
                    _execute_shard,
                    grid.experiment,
                    grid.shard_params[index],
                    config,
                    index,
                    collect,
                )
                in_flight[future] = (index, time.monotonic())
            poll_s = (
                min(0.1, shard_timeout_s / 4.0) if shard_timeout_s is not None else None
            )
            if cancel is not None:
                # Keep the cancellation hook responsive even with no shard
                # timeout configured (wait() would otherwise block until a
                # shard lands, which can be minutes).
                poll_s = min(poll_s, 0.1) if poll_s is not None else 0.1
            done, _ = wait(set(in_flight), timeout=poll_s, return_when=FIRST_COMPLETED)
            landed = False
            broken: List[int] = []
            for future in done:
                index, _started = in_flight.pop(future)
                error = future.exception()
                if error is None:
                    payload, snapshot = future.result()
                    completed[index] = payload
                    shard_metrics[index] = snapshot
                    stats["shards_completed"] += 1
                    logger.debug("%s: shard %d landed", grid.experiment, index)
                    landed = True
                elif isinstance(error, BrokenExecutor):
                    # The worker died out from under the pool (OOM kill,
                    # segfault, kill -9); which in-flight shard was guilty
                    # is unknowable, so each interrupted one is charged an
                    # attempt and re-run.
                    broken.append(index)
                else:
                    raise ShardExecutionError(
                        grid.experiment,
                        index,
                        grid.shard_params[index],
                        f"shard raised {type(error).__name__}: {error}",
                    ) from error
            if landed:
                if checkpoint_dir is not None:
                    _write_checkpoint(checkpoint_dir, grid, completed, stats)
                _notify_progress(progress, grid, stats, shard_metrics, wall_start)
            if broken:
                # The pool is unusable once broken: requeue everything still
                # in flight (those futures are doomed too) and rebuild.
                broken.extend(index for index, _started in in_flight.values())
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                logger.warning(
                    "%s: worker process died; retrying shards %s on a fresh pool",
                    grid.experiment,
                    sorted(broken),
                )
                for index in sorted(broken, reverse=True):
                    _charge_attempt(
                        attempts, index, grid, max_shard_retries, "worker process died"
                    )
                    stats["retries"] += 1
                    queue.appendleft(index)
                pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
                stats["pool_rebuilds"] += 1
                continue
            if shard_timeout_s is not None and in_flight:
                now = time.monotonic()
                overdue = [
                    (future, index)
                    for future, (index, started) in in_flight.items()
                    if now - started > shard_timeout_s
                ]
                if overdue:
                    # A future cannot be cancelled once running; the only way
                    # to reclaim a hung worker is to kill the pool.  Innocent
                    # in-flight shards are requeued without a charge.
                    logger.warning(
                        "%s: shards %s exceeded the %gs timeout; rebuilding the pool",
                        grid.experiment,
                        sorted(index for _future, index in overdue),
                        shard_timeout_s,
                    )
                    _terminate_pool_workers(pool)
                    pool.shutdown(wait=True, cancel_futures=True)
                    for future, index in overdue:
                        del in_flight[future]
                    survivors = [index for index, _started in in_flight.values()]
                    in_flight.clear()
                    for index in sorted(survivors, reverse=True):
                        queue.appendleft(index)
                    for _future, index in sorted(overdue, key=lambda item: -item[1]):
                        _charge_attempt(
                            attempts,
                            index,
                            grid,
                            max_shard_retries,
                            f"shard exceeded the {shard_timeout_s:g}s timeout",
                        )
                        stats["retries"] += 1
                        stats["timeouts"] += 1
                        queue.appendleft(index)
                    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
                    stats["pool_rebuilds"] += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _jsonable(value: Any) -> Any:
    """Reduce a payload to plain JSON types (dict/list/str/float/int/bool/None).

    Numpy scalars are converted with ``.item()``; tuples become lists.  This
    runs on every shard payload — pooled or not — so all execution paths
    carry identical values and a checkpoint round-trip changes nothing.
    """
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise ConfigurationError(f"shard payload value {value!r} is not JSON-serializable")


def _checkpoint_header(grid: ExperimentGrid) -> dict:
    return {
        "kind": "header",
        "experiment": grid.experiment,
        "fingerprint": grid.checkpoint_fingerprint,
        "num_shards": len(grid.shard_params),
    }


def _shard_record(index: int, payload: Any) -> dict:
    return {
        "kind": "shard",
        "index": index,
        "payload": payload,
        "checksum": durable.digest({"index": index, "payload": payload}),
    }


def _load_checkpoint(checkpoint_dir: str, grid: ExperimentGrid) -> Dict[int, Any]:
    """Payloads of a previous run, or ``{}`` if absent, corrupt or stale.

    A checkpoint is a JSON-lines file of :mod:`repro.durable` records: a
    header, then one record per shard whose checksum covers its index and
    payload.  A damaged file is quarantined and the shards that still
    verify are salvaged and written back, so a truncated tail, a bit flip
    or an interleaved write costs only the damaged shards.  A damaged
    header salvages nothing.  A header with another fingerprint is stale
    (the grid or its config changed), not damaged: the checkpoint is simply
    ignored, and the run rewrites it.
    """
    header = _checkpoint_header(grid)

    def verify(number: int, record: dict) -> dict | None:
        if number == 0:
            stale = (
                record.keys() == header.keys()
                and record["kind"] == "header"
                and record["experiment"] == header["experiment"]
                and record["fingerprint"] != header["fingerprint"]
            )
            return record if stale or record == header else None
        index = record.get("index")
        if isinstance(index, int) and record == _shard_record(index, record.get("payload")):
            return record
        return None

    path = checkpoint_path(checkpoint_dir, grid.experiment)
    records, damaged = durable.read_lines(path, verify)
    if not records or records[0] != header:
        return {}
    completed = {record["index"]: record["payload"] for record in records[1:]}
    if damaged:
        _write_checkpoint(checkpoint_dir, grid, completed)
    return completed


def _write_checkpoint(
    checkpoint_dir: str,
    grid: ExperimentGrid,
    completed: Dict[int, Any],
    stats: Dict[str, int] | None = None,
) -> None:
    """Atomically persist the completed shards (:func:`repro.durable.write_atomic`).

    JSON-lines layout: a header record identifying the grid, then one
    checksummed record per completed shard, so partial damage is detectable
    and repairable per record on reload.  ``stats`` (when given) accounts
    the write and its byte volume — telemetry only, never file content, so
    checkpoints stay byte-identical with observability on or off.
    """
    path = checkpoint_path(checkpoint_dir, grid.experiment)
    records = [_checkpoint_header(grid)]
    records += [_shard_record(index, completed[index]) for index in sorted(completed)]
    body = "".join(durable.to_line(record) for record in records)
    tracer = obs_tracing.ACTIVE
    span = (
        tracer.span("orchestrator.checkpoint_write", experiment=grid.experiment, bytes=len(body))
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span:
        durable.write_atomic(path, body)
    if stats is not None:
        stats["checkpoint_writes"] += 1
        stats["checkpoint_bytes"] += len(body)
    logger.debug(
        "%s: checkpoint (%d shards, %d bytes) -> %s",
        grid.experiment,
        len(completed),
        len(body),
        path,
    )
