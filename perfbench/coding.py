"""Workload ``coding_mc``: the coding layer on its own.

Coding is under 1% of ``paper_cold``, so this workload gives the layer a
place where a regression shows.  One round runs:

* ``estimate_ber_monte_carlo`` for each registry code below at a raw BER
  where decoding corrects errors (packed encode → flips → packed decode);
* a bit-exact ``NetworkSimulator`` leg with a CRC on every packet, under
  independent bit flips, so real codewords go through encode, decode and
  CRC verification.

Every Monte-Carlo stream and the leg's traffic derive from the seed, and
every round restarts them, so all rounds of a run are identical.

* ``setup_s``: a fresh process from spawn until set-up is done.
* ``work_s``: the median time of the six Monte-Carlo runs plus the median
  time of the bit-exact leg.
* ``peak_rss_mb``: peak RSS of the worker process.
* checks: every round identical to the first, error counts within their
  block and bit totals, the uncoded BER within six standard deviations of
  the raw BER, every bit-exact transfer delivered or counted as dropped
  (any seed); bit and block error counts and the leg's digest equal the
  pins (pinned seeds).
"""

from __future__ import annotations

import math
import sys

from common import Checks, median, ref_figure, run_in_worker, timed

CODES = ("h(71,64)", "secded(72,64)", "bch(63,t=2)", "h(7,4)", "rep(3,1)", "uncoded")
RAW_BER = 5e-3
MC_BLOCKS = 100_000
#: The bit-exact leg: flips per coded bit, and its traffic.
BITEXACT_FLIP_PROBABILITY = 1e-4
BITEXACT_REQUESTS = 1_500
BITEXACT_PAYLOAD_BITS = 8_192
WARM_BLOCKS = 2_000
NAME = "coding_mc"
WORKER_MODULES = ["repro.coding.montecarlo", "repro.netsim", "repro.simulation.faults"]


class _Round:
    """Seeded inputs and the shared, warmed objects of the workload."""

    def __init__(self, seed: int):
        import numpy as np

        from repro.coding import get_code
        from repro.config import DEFAULT_CONFIG
        from repro.experiments.network import request_rate_for_load
        from repro.manager.manager import OpticalLinkManager
        from repro.traffic.generators import UniformTrafficGenerator

        self._np = np
        self.codes = {name: get_code(name) for name in CODES}
        streams = np.random.SeedSequence([seed, 0x636F64]).spawn(len(CODES) + 3)
        self._mc_streams = dict(zip(CODES, streams))
        self._engine_stream, self._flip_stream, traffic_stream = streams[len(CODES) :]
        rate = request_rate_for_load(0.5, payload_bits=BITEXACT_PAYLOAD_BITS)
        self.requests = list(
            UniformTrafficGenerator(
                12,
                mean_request_rate_hz=rate,
                payload_bits=BITEXACT_PAYLOAD_BITS,
                seed=traffic_stream,
            ).generate(BITEXACT_REQUESTS)
        )
        self.manager = OpticalLinkManager(config=DEFAULT_CONFIG)

    def _fresh(self, stream):
        return self._np.random.SeedSequence(entropy=stream.entropy, spawn_key=stream.spawn_key)

    def monte_carlo(self, name: str, num_blocks: int):
        from repro.coding.montecarlo import estimate_ber_monte_carlo

        return estimate_ber_monte_carlo(
            self.codes[name], RAW_BER, num_blocks=num_blocks, seed=self._fresh(self._mc_streams[name])
        )

    def bitexact(self, requests: list):
        from repro.netsim import NetworkSimulator
        from repro.simulation.faults import IndependentErrorModel

        flips = IndependentErrorModel(
            BITEXACT_FLIP_PROBABILITY, rng=self._np.random.default_rng(self._fresh(self._flip_stream))
        )
        simulator = NetworkSimulator(
            manager=self.manager,
            mode="bit-exact",
            seed=self._fresh(self._engine_stream),
            fault_model=flips,
        )
        return simulator.run(requests)


def prepare(seed: int) -> _Round:
    """Set-up: build the inputs and warm every code and the leg."""
    inputs = _Round(seed)
    for name in CODES:
        inputs.monte_carlo(name, WARM_BLOCKS)
    inputs.bitexact(inputs.requests[:50])
    return inputs


def run_round(inputs: _Round) -> dict:
    from netsim import records_digest

    def monte_carlo():
        errors = {}
        for name in CODES:
            result = inputs.monte_carlo(name, MC_BLOCKS)
            errors[name] = [result.bit_errors, result.block_errors]
        return errors

    errors, mc_s, mc_ref = timed(monte_carlo)
    result, leg_s, leg_ref = timed(lambda: inputs.bitexact(inputs.requests))
    records = result.records
    return {
        "mc": {"errors": errors, "wall_s": mc_s, "ref_s": mc_ref},
        "bitexact": {
            "events": result.events_processed,
            "packets": result.packets_sent,
            "digest": records_digest(records),
            "accounted": len(records) == len(inputs.requests)
            and all(r.packets_delivered + r.packets_dropped == r.packets_total for r in records),
            "wall_s": leg_s,
            "ref_s": leg_ref,
        },
    }


def _signature(outcome: dict) -> tuple:
    leg = outcome["bitexact"]
    return (outcome["mc"]["errors"], leg["events"], leg["packets"], leg["digest"])


def check_rounds(rounds: list, pins: "dict | None", checks: Checks) -> list:
    """Check every round; returns the rounds that passed."""
    from repro.coding import get_code

    passed = []
    for index, outcome in enumerate(rounds):
        where = f"round {index}"
        ok = checks.check(
            _signature(outcome) == _signature(rounds[0]), f"{where}: output differs from round 0"
        )
        errors = outcome["mc"]["errors"]
        for name, (bit_errors, block_errors) in errors.items():
            k = get_code(name).k
            ok &= checks.check(
                0 <= block_errors <= MC_BLOCKS and block_errors <= bit_errors <= block_errors * k,
                f"{where} {name}: error counts out of range",
            )
        bits = MC_BLOCKS * get_code("uncoded").k
        sigma = math.sqrt(bits * RAW_BER * (1.0 - RAW_BER))
        ok &= checks.check(
            abs(errors["uncoded"][0] - bits * RAW_BER) <= 6.0 * sigma,
            f"{where}: uncoded bit errors far from the raw BER",
        )
        ok &= checks.check(
            outcome["bitexact"]["accounted"],
            f"{where}: a bit-exact transfer was neither delivered nor counted as dropped",
        )
        if pins is not None:
            leg = outcome["bitexact"]
            ok &= checks.check(
                errors == pins["mc"]
                and [leg["events"], leg["packets"], leg["digest"]] == pins["bitexact"],
                f"{where}: error counts or the bit-exact digest differ from the pin",
            )
        if ok:
            passed.append(outcome)
    return passed


def figures(rounds: list) -> dict:
    """Raw Monte-Carlo blocks and bit-exact packets per host second, and the host speed."""
    blocks = MC_BLOCKS * len(CODES)
    result = {
        "coding.mc_blocks_per_s": (
            median([blocks / outcome["mc"]["wall_s"] for outcome in rounds]),
            "blocks/s",
            len(rounds),
        ),
        "coding.bitexact_packets_per_s": (
            median([o["bitexact"]["packets"] / o["bitexact"]["wall_s"] for o in rounds]),
            "packets/s",
            len(rounds),
        ),
    }
    result.update(ref_figure([o[unit]["ref_s"] for o in rounds for unit in ("mc", "bitexact")]))
    return result


def run(seed: int, seconds: float, trace: bool, pins: dict) -> "tuple[dict, Checks, dict]":
    """Returns ``(metrics, checks, per-layer figures)``."""
    return run_in_worker("coding", sys.modules[__name__], seed, seconds, trace, pins)
