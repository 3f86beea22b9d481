"""The repository's benchmark: four workloads, checked outputs, traced layers.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps each layer's public entry
points (see ``spans.py``) and reports the per-layer metrics, the import
breakdown and the tracing overhead.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/DESIGN.md`` says why each workload exists
and which end-to-end metric each layer metric should move.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every timed output is checked;
the exit code is 1 when any check failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SCRATCH, SRC, host_info, load_pins, remove_tree, use_source_tree  # noqa: E402

#: Workload name -> the module (in this directory) that runs it.
WORKLOADS = {
    "paper_cold": "paper",
    "netsim_warm": "netsim",
    "service_mixed": "service",
    "coding_mc": "coding",
}


def _declared_metrics(trace: bool) -> "dict[str, str]":
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        entry["name"]: entry["unit"]
        for entry in declared["per_layer" if trace else "end_to_end"]
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no source tree at {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_source_tree()
    trace = bool(args.trace)
    declared = _declared_metrics(trace)

    print(f"host: {json.dumps(host_info(), sort_keys=True)}")
    try:
        measured, checks, figures = importlib.import_module(WORKLOADS[args.workload]).run(
            args.seed, args.seconds, trace, load_pins()
        )
    finally:
        remove_tree(SCRATCH)

    for name, (value, unit, samples) in sorted(figures.items()):
        print(f"{args.workload}: {name} = {value:.6g} {unit} ({samples} samples)")
    for message in checks.messages:
        print(f"check failed: {message}")
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": unit}
        elif trace:
            # A layer this workload never reaches.
            metrics[name] = {"value": 0, "unit": unit}
    missing = sorted(set(declared) - set(metrics))
    correct = checks.failed == 0 and checks.attempted > 0 and not missing
    for name in sorted(metrics):
        print(f"{args.workload}: {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    if missing:
        print(f"not measured: {', '.join(missing)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed if checks.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
