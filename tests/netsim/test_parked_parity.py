"""Parity of parked first attempts against the oracle, over drawn run configurations.

The event core parks a probabilistic transfer's first attempt as its
finished record and swaps in a stateful transfer only when the attempt is
flagged, blacked out, deferred or refused (see :mod:`repro.netsim.epoch`).
Which path an attempt takes depends on the whole run configuration, so
hypothesis draws that configuration instead of listing it, covering each
item of a test-generator checklist:

* **empty / null** — no drift, no controller, no faults, no CRC, no
  timeout, one-request runs;
* **state transitions** — every drift profile and controller mode (level
  switches, reconfiguration blocks), every fault scenario with and without
  the degradation ladder (blackouts, deferrals, down channels);
* **temporal** — arrival ties (arrivals on a coarse grid), backoff and
  timeout relative to the horizon;
* **retry budgets** — CRC on or off, 0 to 5 retries, on a design-point link
  and on a noisy one where most attempts are flagged;
* **mixed payloads** — up to four payload sizes interleaved in one run.

Every drawn run goes through the oracle and ``NetworkSimulator.run`` with
freshly built models on each side, and every observable must be equal.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st
from oracle import BACKENDS, FixedCodePolicy, network_simulator
from test_engine_parity import assert_identical

from repro.config import DEFAULT_CONFIG
from repro.manager.policies import DegradationLadder, margin_levels
from repro.manager.runtime import AdaptiveEccController
from repro.netsim import NetworkSimulator, make_drift_model, make_fault_model
from repro.netsim.dynamics import DRIFT_PROFILES
from repro.netsim.failures import FAULT_SCENARIOS, ChannelFaultTimeline, HardFaultModel
from repro.traffic.generators import TrafficRequest, UniformTrafficGenerator

NUM_ONIS = DEFAULT_CONFIG.num_onis
NW = DEFAULT_CONFIG.num_wavelengths

#: The channel a run sees: static, one drift profile, or one fault scenario
#: (drift and hard faults are mutually exclusive).
CHANNELS = ("static",) + DRIFT_PROFILES[1:] + FAULT_SCENARIOS[1:]

#: Link shapes: the paper's codes at their design point (failures rare), or
#: H(7,4) alone at a 1e-2 target with 64-bit packets (most attempts fail).
LINKS = {
    "design": dict(target_ber=1e-9, packet_bits=512, rate_hz=5e8),
    "noisy": dict(target_ber=1e-2, packet_bits=64, rate_hz=2e6),
}


@st.composite
def run_configs(draw):
    channel = draw(st.sampled_from(CHANNELS))
    faulted = channel in FAULT_SCENARIOS
    ladder = faulted and draw(st.booleans())
    return {
        "channel": channel,
        "ladder": ladder,
        "controller": draw(st.sampled_from((None, "static", "adaptive", "oracle"))),
        "link": draw(st.sampled_from(sorted(LINKS))),
        "crc": draw(st.sampled_from((None, "crc16-ccitt"))),
        "max_retries": draw(st.integers(0, 5)),
        # Fractions of the traffic horizon; the ladder defers through the
        # backed-off retry path, so it needs a positive backoff.
        "backoff": draw(st.sampled_from((0.002, 0.02) if ladder else (0.0, 0.002, 0.02))),
        "timeout": draw(st.sampled_from((None, 0.05, 0.5))),
        # Mostly runs long enough for faults to bite, some one-request runs.
        "count": draw(st.integers(0, 160).map(lambda n: 1 if n < 8 else max(n, 40))),
        "traffic_seed": draw(st.integers(0, 2**16)),
        "payloads": draw(
            st.lists(
                st.sampled_from((64, 512, 1000, 4096, 65536)), min_size=1, max_size=4
            )
        ),
        "tie_grid": draw(st.booleans()),
    }


def _requests(config):
    link = LINKS[config["link"]]
    generator = UniformTrafficGenerator(
        NUM_ONIS,
        mean_request_rate_hz=link["rate_hz"],
        target_ber=link["target_ber"],
        seed=config["traffic_seed"],
    )
    requests = list(generator.generate(config["count"]))
    grid = requests[-1].arrival_time_s / 8 if config["tie_grid"] else 0.0
    payloads = config["payloads"]
    return [
        replace(
            request,
            arrival_time_s=(
                math.floor(request.arrival_time_s / grid) * grid
                if grid > 0.0
                else request.arrival_time_s
            ),
            payload_bits=payloads[index % len(payloads)],
        )
        for index, request in enumerate(requests)
    ]


def _simulator(config, horizon_s):
    link = LINKS[config["link"]]
    channel = config["channel"]
    kwargs = dict(
        seed=11,
        packet_bits=link["packet_bits"],
        crc=config["crc"],
        max_retries=config["max_retries"],
        retry_backoff_s=config["backoff"] * horizon_s,
    )
    if config["link"] == "noisy":
        kwargs["policy"] = FixedCodePolicy("H(7,4)")
    if config["timeout"] is not None:
        kwargs["transfer_timeout_s"] = config["timeout"] * horizon_s
    if channel in DRIFT_PROFILES:
        kwargs["dynamics"] = make_drift_model(
            channel, NUM_ONIS, seed=17, worst_case_multiplier=8.0, timescale_s=horizon_s
        )
    elif channel in FAULT_SCENARIOS:
        kwargs["failures"] = make_fault_model(
            channel, NUM_ONIS, NW, seed=5, horizon_s=horizon_s
        )
        if config["ladder"]:
            kwargs["degradation"] = DegradationLadder(
                margins=margin_levels(4.0), num_wavelengths=NW
            )
    if config["controller"] is not None:
        kwargs["controller"] = AdaptiveEccController(
            margins=margin_levels(4.0), mode=config["controller"]
        )
        kwargs["telemetry_seed"] = 99
    return network_simulator(**kwargs)


def _config(**overrides):
    config = {
        "channel": "static",
        "ladder": False,
        "controller": None,
        "link": "design",
        "crc": "crc16-ccitt",
        "max_retries": 4,
        "backoff": 0.0,
        "timeout": None,
        "count": 120,
        "traffic_seed": 1,
        "payloads": [512],
        "tie_grid": False,
    }
    config.update(overrides)
    return config


class TestParkedAttemptParity:
    @given(config=run_configs())
    @settings(max_examples=200, deadline=None)
    # Shapes every run must cover, whatever the draw: adaptive telemetry on
    # flagged and retried attempts under drift; blackout deferrals with the
    # ladder; penalised attempts without it; a one-request run.
    @example(
        config=_config(
            channel="thermal", controller="adaptive", link="noisy",
            payloads=[64, 1000],
        )
    )
    @example(
        config=_config(
            channel="blackout", ladder=True, controller="adaptive", backoff=0.02,
            timeout=0.5, traffic_seed=3,
        )
    )
    @example(config=_config(channel="laser-droop", link="noisy", controller="oracle"))
    @example(config=_config(count=1, crc=None, max_retries=0))
    def test_batched_run_equals_the_oracle(self, config):
        requests = _requests(config)
        # A one-request run has no span: anchor the models at 1 us.
        horizon_s = max(requests[-1].arrival_time_s, 1e-6)
        results = {
            name: backend(_simulator(config, horizon_s), iter(requests))
            for name, backend in BACKENDS.items()
        }
        assert_identical(results["reference"], results["batched"])
        assert len(results["batched"].records) == len(requests)


class TestParkedRawBer:
    def test_raw_ber_follows_the_ladder_action_at_request_time(self):
        """A droop step lands between a queued transfer's request and start.

        Transfers requested before the step start after it at the same
        health as those requested after it, and a static controller at the
        top margin gives them all the same design raw BER, but the ladder
        derates only the later ones: their raw BERs must differ.
        """
        duration_probe = NetworkSimulator(
            policy=FixedCodePolicy("H(7,4)"), packet_bits=64, seed=1
        ).run([TrafficRequest(0.0, 1, 0, 512, 1e-2)])
        spacing_s = duration_probe.records[0].completion_time_s / 2
        requests = [
            TrafficRequest(index * spacing_s, 1, 0, 512, 1e-2) for index in range(80)
        ]
        step_s = 40 * spacing_s
        results = {}
        for name, backend in BACKENDS.items():
            failures = HardFaultModel(
                [ChannelFaultTimeline(NW, droop_steps=[(step_s, 8.0)])]
                + [ChannelFaultTimeline(NW) for _ in range(NUM_ONIS - 1)]
            )
            simulator = NetworkSimulator(
                policy=FixedCodePolicy("H(7,4)"),
                packet_bits=64,
                seed=11,
                max_retries=3,
                failures=failures,
                degradation=DegradationLadder(
                    margins=margin_levels(4.0), num_wavelengths=NW
                ),
                controller=AdaptiveEccController(margins=margin_levels(4.0), mode="static"),
                retry_backoff_s=spacing_s / 10,
            )
            results[name] = backend(simulator, iter(requests))
        assert_identical(results["reference"], results["batched"])
        records = results["batched"].records
        # Some transfers requested before the step started after it.
        assert any(
            r.arrival_time_s < step_s < r.first_start_time_s for r in records
        )
