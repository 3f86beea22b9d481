"""Entry point of the benchmark's child processes.

    python perfbench/child.py paper --ref-out FILE [--spans-out FILE] [runner args...]
    python perfbench/child.py import MODULE
    python perfbench/child.py serve --out FILE [--trace] [repro-serve args...]
    python perfbench/child.py netsim --seed N --seconds S [--trace] [--setup-only]
    python perfbench/child.py coding --seed N --seconds S [--trace] [--setup-only]

``paper`` and ``serve`` run the real console entry points
(``repro-experiments`` and ``repro-serve``), with the layer wrappers of
:mod:`spans` installed first when tracing.  ``import`` imports one
module.  ``netsim`` and ``coding`` print ``ready`` on stdout once set up,
then one JSON line with their measurements (see ``common.worker_body``).

Every role but ``serve`` samples the host's speed with ``common.PROBE``
from its first line on.  ``paper`` writes the reference-loop seconds over
its whole run to ``--ref-out``; ``import`` prints them on stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import PROBE, self_peak_rss_mb, use_source_tree, worker_body  # noqa: E402


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _paper(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="child.py paper")
    parser.add_argument("--ref-out", required=True)
    parser.add_argument("--spans-out")
    args, runner_args = parser.parse_known_args(argv)
    recorder = None
    if args.spans_out:
        from spans import SpanRecorder, install_layer_patches

        recorder = SpanRecorder()
        install_layer_patches(recorder)
    from repro.experiments import runner

    code = runner.main(runner_args)
    sys.stdout.flush()
    _write_json(args.ref_out, {"ref_s": PROBE.ref_s(PROBE.started, time.perf_counter())})
    if recorder is not None:
        _write_json(args.spans_out, recorder.dump())
    return code


def _import(argv: list) -> int:
    importlib.import_module(argv[0])
    print(PROBE.ref_s(PROBE.started, time.perf_counter()))
    return 0


def _serve(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="child.py serve")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args, serve_args = parser.parse_known_args(argv)
    recorder = None
    if args.trace:
        from spans import SpanRecorder, install_layer_patches

        recorder = SpanRecorder()
        install_layer_patches(recorder)
    from repro.service import server

    code = server.main(serve_args)
    _write_json(
        args.out,
        {
            "peak_rss_mb": self_peak_rss_mb(),
            "spans": recorder.dump() if recorder is not None else None,
        },
    )
    return code


def _worker(role: str, argv: list) -> int:
    parser = argparse.ArgumentParser(prog=f"child.py {role}")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if role == "netsim":
        import netsim as workload
    else:
        import coding as workload
    result = worker_body(workload, args.seed, args.seconds, args.trace, args.setup_only)
    if result is not None:
        result["peak_rss_mb"] = self_peak_rss_mb()
        print(json.dumps(result), flush=True)
    return 0


def main(argv: list) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    role, rest = argv[0], argv[1:]
    roles = {"paper": _paper, "import": _import, "netsim": _worker, "coding": _worker}
    if role == "serve":
        use_source_tree()
        return _serve(rest)
    if role not in roles:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    PROBE.start()
    try:
        use_source_tree()
        return roles[role](rest) if role in ("paper", "import") else _worker(role, rest)
    finally:
        # An alarm after the interpreter restores default handlers would kill it.
        PROBE.stop()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
