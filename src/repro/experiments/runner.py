"""Command-line runner regenerating every table and figure of the paper.

Usage::

    python -m repro.experiments.runner             # run everything
    python -m repro.experiments.runner figure5     # run one experiment
    repro-experiments table1 figure6a              # via the console script
    repro-experiments figure5 --jobs 4             # parallel sweep shards
    repro-experiments validation --jobs 4 --checkpoint-dir ckpt
    repro-experiments validation --resume --checkpoint-dir ckpt
    repro-experiments network --progress --metrics # live heartbeat + summary
    repro-experiments obs-report network           # render a run's manifest

Each experiment prints a text report; ``--csv DIR`` additionally writes the
raw series as CSV files for external plotting.  Execution is delegated to
:mod:`repro.experiments.orchestrator`, which shards each experiment's
parameter grid, optionally fans the shards out over ``--jobs`` worker
processes, and — thanks to per-shard deterministic seeding — produces
byte-identical reports at any parallelism.  With ``--checkpoint-dir`` the
completed shards are persisted after each one, so an interrupted sweep
rerun with ``--resume`` picks up where it stopped.

Every invocation also writes a *run manifest* (grid fingerprint, software
versions, wall/CPU time, exactly merged per-shard metrics; see
:mod:`repro.obs.manifest`) next to its checkpoint — into
``--manifest-dir``, the checkpoint directory, or ``.repro-obs`` in that
order of preference.  ``obs-report`` renders those manifests back into
human-readable run reports.  ``--trace FILE`` appends one JSON line per
timed span (shard executions, link-design solves, epoch flushes,
checkpoint writes); none of this instrumentation perturbs any simulation
observable.

A cold start loads only what the run reads.  Importing this module loads
the orchestrator and the observability layer, not NumPy and no experiment:
``--help`` lists the names from the orchestrator's registry, and each
experiment's module (and with it the layers it uses) is imported when its
grid is first looked up.  ``table1`` or ``figure5`` alone therefore loads no
network simulator, traffic generator or service.
"""

from __future__ import annotations

import argparse
import glob
import logging
import os
import signal
import sys

from ..exceptions import SweepCancelled
from ..obs import manifest as obs_manifest
from ..obs import tracing as obs_tracing
from ..obs.logutil import setup_logging
from ..obs.report import render_run_report
from .orchestrator import SweepProgress, available_experiments, run_experiment
from .report import rows_to_csv, section

__all__ = ["main"]

logger = logging.getLogger("repro.experiments.runner")


#: Manifest directory used when neither --manifest-dir nor --checkpoint-dir
#: is given.
DEFAULT_MANIFEST_DIR = ".repro-obs"


def _print_progress(update: SweepProgress) -> None:
    """Heartbeat line on stderr: shards done, event rate, remaining-time guess."""
    rate = update.events_processed / update.elapsed_s if update.elapsed_s > 0 else 0.0
    eta = update.eta_s
    eta_text = f", eta {eta:.0f}s" if eta is not None else ""
    print(
        f"[{update.experiment}] {update.shards_done}/{update.shards_total} shards, "
        f"{rate:,.0f} events/s{eta_text}",
        file=sys.stderr,
        flush=True,
    )


def _metrics_summary(manifest: dict) -> str:
    """Compact post-run counter dump for ``--metrics``."""
    counters = manifest.get("metrics", {}).get("counters", {})
    lines = [f"[metrics] {manifest.get('experiment', '?')}"]
    if not counters:
        lines.append("  (no counters recorded)")
    for name in sorted(counters):
        lines.append(f"  {name} = {counters[name]:,}")
    return "\n".join(lines)


def _obs_report_main(argv: list[str]) -> int:
    """``repro-experiments obs-report``: render run manifests as text."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs-report",
        description="Render the run manifests written by repro-experiments "
        "into human-readable run reports.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiments whose manifests to render (default: every manifest "
        "in the manifest directory)",
    )
    parser.add_argument(
        "--manifest-dir",
        metavar="DIR",
        default=DEFAULT_MANIFEST_DIR,
        help=f"directory holding the manifests (default: {DEFAULT_MANIFEST_DIR})",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="operational log verbosity on stderr (default: warning)",
    )
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    if args.experiments:
        paths = [
            obs_manifest.manifest_path(args.manifest_dir, name) for name in args.experiments
        ]
    else:
        paths = sorted(glob.glob(os.path.join(args.manifest_dir, "*.manifest.json")))
    if not paths:
        print(f"no run manifests found in {args.manifest_dir!r}", file=sys.stderr)
        return 1
    status = 0
    for path in paths:
        try:
            manifest = obs_manifest.load_manifest(path)
        except (OSError, ValueError) as error:
            logger.error("cannot read manifest %s: %s", path, error)
            status = 1
            continue
        print(render_run_report(manifest))
        print()
    return status


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-experiments``."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs-report":
        return _obs_report_main(list(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiments to run (default: all); available: {', '.join(available_experiments())}",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="directory in which to write one CSV file per experiment",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per experiment (default: 1; reports are "
        "byte-identical at any parallelism)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="persist completed sweep shards to DIR after each shard",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse matching shards from --checkpoint-dir (default: "
        ".repro-checkpoints) and run only the missing ones",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="pooled runs: kill and retry any shard attempt exceeding this "
        "wall-clock budget",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        metavar="N",
        help="pooled runs: re-attempts per shard after a worker death or "
        "timeout before the sweep aborts (default: 2)",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="operational log verbosity on stderr (default: warning); "
        "reports stay on stdout",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="append one JSON line per timed span (shards, link-design "
        "solves, epoch flushes, checkpoint writes) to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print each experiment's merged counters after its report",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream a per-shard progress heartbeat (shards done, events/s, "
        "ETA) to stderr",
    )
    parser.add_argument(
        "--manifest-dir",
        metavar="DIR",
        default=None,
        help="directory for run manifests (default: --checkpoint-dir if "
        f"given, else {DEFAULT_MANIFEST_DIR})",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        parser.error("--shard-timeout must be positive")
    if args.shard_retries < 0:
        parser.error("--shard-retries cannot be negative")
    checkpoint_dir = args.checkpoint_dir
    if args.resume and checkpoint_dir is None:
        checkpoint_dir = ".repro-checkpoints"
    manifest_dir = args.manifest_dir
    if manifest_dir is None:
        manifest_dir = checkpoint_dir if checkpoint_dir is not None else DEFAULT_MANIFEST_DIR

    available = available_experiments()
    names = args.experiments if args.experiments else list(available)
    unknown = [name for name in names if name not in available]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; available: {', '.join(available)}"
        )
    setup_logging(args.log_level)
    if args.trace is not None:
        obs_tracing.enable_tracing(args.trace)

    # Graceful interruption: the first SIGTERM/SIGINT flips a flag the
    # orchestrator polls between shards, so the sweep stops at a shard
    # boundary *after* finalizing its checkpoint instead of dying mid-write.
    interrupted: list[int] = []

    def _request_stop(signum, frame) -> None:
        interrupted.append(signum)

    previous_handlers = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    try:
        for name in names:
            try:
                text, rows = run_experiment(
                    name,
                    jobs=args.jobs,
                    checkpoint_dir=checkpoint_dir,
                    resume=args.resume,
                    shard_timeout_s=args.shard_timeout,
                    max_shard_retries=args.shard_retries,
                    manifest_dir=manifest_dir,
                    progress=_print_progress if args.progress else None,
                    cancel=lambda: bool(interrupted),
                )
            except SweepCancelled as stopped:
                signum = interrupted[0] if interrupted else signal.SIGINT
                if checkpoint_dir is not None:
                    hint = (
                        f"resume with: repro-experiments {name} --resume "
                        f"--checkpoint-dir {checkpoint_dir}"
                    )
                else:
                    hint = (
                        "no --checkpoint-dir was given, so completed shards "
                        "were not persisted; a rerun starts fresh"
                    )
                print(
                    f"interrupted by signal {signum}: {stopped}; {hint}",
                    file=sys.stderr,
                    flush=True,
                )
                return 130
            print(section(f"Experiment {name}", text))
            if args.metrics:
                manifest = obs_manifest.load_manifest(
                    obs_manifest.manifest_path(manifest_dir, name)
                )
                print(_metrics_summary(manifest))
            if args.csv:
                os.makedirs(args.csv, exist_ok=True)
                path = os.path.join(args.csv, f"{name}.csv")
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(rows_to_csv(rows))
                logger.info("wrote %s", path)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        if args.trace is not None:
            obs_tracing.disable_tracing()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
