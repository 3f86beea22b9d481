"""Workload ``netsim_warm``: the network simulator's event loop, warm.

Set-up generates seeded uniform traffic, builds one shared
``OpticalLinkManager`` and warms it with a short run of every leg, so the
timed runs measure the event loop, the manager's per-request
configuration and the outcome samplers, not operating-point solves.
Each timed leg builds a fresh ``NetworkSimulator`` (its random streams
restart from the seed) sharing that manager, which keeps every round's
output identical:

* ``static``: the default probabilistic engine, no dynamics;
* ``adaptive``: thermal drift with the online ``AdaptiveEccController``;
* ``faulted``: the ``mixed`` hard-fault model with the degradation ladder.

One round runs the three legs, each sized to about half a second or more
on a 2-CPU host; rounds repeat until ``--seconds`` have passed.

* ``setup_s``: a fresh process from spawn until set-up is done.
* ``work_s``: the sum over legs of each leg's median time in the run.
* ``peak_rss_mb``: peak RSS of the worker process.
* checks: per leg, one record per request and every transfer either
  delivered or counted as dropped (any seed); every round identical to the
  first (any seed); events, packets and the record digest equal the pins
  (pinned seeds).
"""

from __future__ import annotations

import hashlib
import sys

from common import Checks, median, ref_figure, run_in_worker, timed

LOAD = 0.5
PAYLOAD_BITS = 65536
NUM_ONIS = 12
#: Requests per leg; the static leg reuses the traffic's prefix for the others.
LEG_REQUESTS = {"static": 100_000, "adaptive": 30_000, "faulted": 15_000}
WARM_REQUESTS = 2_000
LEGS = tuple(LEG_REQUESTS)
NAME = "netsim_warm"
WORKER_MODULES = ["repro.netsim", "repro.experiments.network", "repro.manager.runtime"]


def records_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(tuple(record)).encode("ascii"))
    return digest.hexdigest()


class _Legs:
    """Seeded traffic plus the simulator factory of each leg."""

    def __init__(self, seed: int):
        import numpy as np

        from repro.config import DEFAULT_CONFIG
        from repro.experiments.network import request_rate_for_load
        from repro.manager.manager import OpticalLinkManager
        from repro.traffic.generators import UniformTrafficGenerator

        self._np = np
        self.config = DEFAULT_CONFIG
        streams = np.random.SeedSequence([seed, 0x6E6574]).spawn(5)
        self._seeds = streams[1:]
        rate = request_rate_for_load(LOAD, payload_bits=PAYLOAD_BITS)
        generator = UniformTrafficGenerator(
            NUM_ONIS, mean_request_rate_hz=rate, payload_bits=PAYLOAD_BITS, seed=streams[0]
        )
        self.requests = list(generator.generate(max(LEG_REQUESTS.values())))
        self.manager = OpticalLinkManager(config=self.config)

    def traffic(self, leg: str) -> list:
        return self.requests[: LEG_REQUESTS[leg]]

    def simulator(self, leg: str):
        from repro.manager.policies import DegradationLadder, margin_levels
        from repro.manager.runtime import AdaptiveEccController
        from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model

        engine_seed, telemetry_seed, model_seed, _spare = (
            self._np.random.SeedSequence(entropy=s.entropy, spawn_key=s.spawn_key)
            for s in self._seeds
        )
        if leg == "static":
            return NetworkSimulator(config=self.config, manager=self.manager, seed=engine_seed)
        horizon_s = self.traffic(leg)[-1].arrival_time_s
        if leg == "adaptive":
            worst_case = 16.0
            return NetworkSimulator(
                config=self.config,
                manager=self.manager,
                seed=engine_seed,
                dynamics=make_drift_model(
                    "thermal",
                    NUM_ONIS,
                    seed=model_seed,
                    worst_case_multiplier=worst_case,
                    timescale_s=horizon_s,
                ),
                controller=AdaptiveEccController(
                    margins=margin_levels(worst_case), mode="adaptive"
                ),
                telemetry_seed=telemetry_seed,
            )
        failures = make_fault_model(
            "mixed",
            self.config.num_onis,
            self.config.num_wavelengths,
            seed=int(model_seed.generate_state(1)[0]),
            horizon_s=horizon_s,
        )
        margins = margin_levels(max(failures.worst_case_penalty, 8.0))
        return NetworkSimulator(
            config=self.config,
            manager=self.manager,
            seed=engine_seed,
            controller=AdaptiveEccController(margins=margins, mode="adaptive"),
            telemetry_seed=telemetry_seed,
            failures=failures,
            degradation=DegradationLadder(
                margins=margins, num_wavelengths=self.config.num_wavelengths
            ),
            retry_backoff_s=0.01 * horizon_s,
            transfer_timeout_s=0.5 * horizon_s,
        )


def prepare(seed: int) -> _Legs:
    """Set-up: generate the traffic and warm the shared manager."""
    legs = _Legs(seed)
    for leg in LEGS:
        legs.simulator(leg).run(legs.traffic(leg)[:WARM_REQUESTS])
    return legs


def _run_leg(legs: _Legs, leg: str) -> dict:
    simulator = legs.simulator(leg)
    requests = legs.traffic(leg)
    result, wall, ref = timed(lambda: simulator.run(requests))
    records = result.records
    return {
        "wall_s": wall,
        "ref_s": ref,
        "events": result.events_processed,
        "packets": result.packets_sent,
        "digest": records_digest(records),
        "one_record_per_request": len(records) == len(requests),
        "accounted": all(
            record.packets_delivered + record.packets_dropped == record.packets_total
            for record in records
        ),
    }


def run_round(legs: _Legs) -> dict:
    return {leg: _run_leg(legs, leg) for leg in LEGS}


def check_rounds(rounds: list, pins: "dict | None", checks: Checks) -> list:
    """Check every leg of every round; returns the rounds that passed."""
    first = rounds[0]
    passed = []
    for index, legs in enumerate(rounds):
        ok = True
        for leg, outcome in legs.items():
            where = f"round {index} leg {leg}"
            ok &= checks.check(
                outcome["one_record_per_request"] and outcome["accounted"],
                f"{where}: a transfer was neither delivered nor counted as dropped",
            )
            ok &= checks.check(
                (outcome["events"], outcome["packets"], outcome["digest"])
                == (first[leg]["events"], first[leg]["packets"], first[leg]["digest"]),
                f"{where}: output differs from round 0",
            )
            if pins is not None:
                pin = pins[leg]
                ok &= checks.check(
                    (outcome["events"], outcome["packets"], outcome["digest"])
                    == (pin["events"], pin["packets"], pin["digest"]),
                    f"{where}: events/packets/digest differ from the pin",
                )
        if ok:
            passed.append(legs)
    return passed


def figures(rounds: list) -> dict:
    """Raw events per host second of each leg, and the host speed."""
    result = {
        f"netsim.{leg}.events_per_s": (
            median([legs[leg]["events"] / legs[leg]["wall_s"] for legs in rounds]),
            "events/s",
            len(rounds),
        )
        for leg in LEGS
    }
    result.update(ref_figure([legs[leg]["ref_s"] for legs in rounds for leg in LEGS]))
    return result


def run(seed: int, seconds: float, trace: bool, pins: dict) -> "tuple[dict, Checks, dict]":
    """Returns ``(metrics, checks, per-layer figures)``."""
    return run_in_worker("netsim", sys.modules[__name__], seed, seconds, trace, pins)
