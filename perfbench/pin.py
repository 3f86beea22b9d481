"""Regenerate ``pins.json``: the exact outputs the benchmark checks against.

    python3 perfbench/pin.py --seeds 0-31

Pins the SHA-256 of the reproduction report and, for each seed, the
``netsim_warm`` legs (events, packets, record digest) and the
``coding_mc`` round (bit and block error counts per code, bit-exact leg
events, packets and digest).  Pins change only when the program's output
changes on purpose; review the diff of ``pins.json`` like code.  Seeds
without a pin still get every check that needs none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, PROBE, SCRATCH, remove_tree, sha256_hex, use_source_tree  # noqa: E402


def _seeds(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    use_source_tree()
    import coding
    import netsim
    import paper

    _wall, _ref, completed = paper.reproduce()
    completed.check_returncode()
    pins = {
        "paper_cold": {"stdout_sha256": sha256_hex(completed.stdout)},
        "netsim_warm": {},
        "coding_mc": {},
    }
    # The rounds time their units against the host probe.
    PROBE.start()
    try:
        for seed in _seeds(args.seeds):
            legs = netsim.run_round(netsim.prepare(seed))
            pins["netsim_warm"][str(seed)] = {
                leg: {key: outcome[key] for key in ("events", "packets", "digest")}
                for leg, outcome in legs.items()
            }
            outcome = coding.run_round(coding.prepare(seed))
            leg = outcome["bitexact"]
            pins["coding_mc"][str(seed)] = {
                "mc": outcome["mc"]["errors"],
                "bitexact": [leg["events"], leg["packets"], leg["digest"]],
            }
            print(f"pinned seed {seed}", file=sys.stderr, flush=True)
    finally:
        PROBE.stop()
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    remove_tree(SCRATCH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
