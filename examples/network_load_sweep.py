"""Network load sweep on the discrete-event MWSR ring simulator.

Drives :class:`repro.netsim.NetworkSimulator` — traffic generators, token
arbitration, the OS-level link manager and fault-injected ARQ in one engine
— over increasing injection rates for each canonical traffic shape, and
prints the latency/throughput/energy knee per manager policy.  This is the
load/latency curve the single-link experiments cannot produce: contention
on the reader channels is what separates the hotspot curve from the
uniform one.

Run with::

    python examples/network_load_sweep.py

or reproduce the full registered experiment (shardable over processes)::

    repro-experiments network --jobs 4
"""

from __future__ import annotations

from repro.experiments import run_experiment
from repro.netsim import NetworkSimulator
from repro.traffic.generators import UniformTrafficGenerator


def single_point_anatomy() -> None:
    """Inspect one simulation point in detail: records and channel state."""
    traffic = UniformTrafficGenerator(
        12, mean_request_rate_hz=5e8, payload_bits=4096, seed=1
    )
    simulator = NetworkSimulator(seed=2)
    result = simulator.run(traffic.generate(2000))
    metrics = result.metrics()
    print("One uniform-traffic point (2000 requests, min-power policy):")
    print(f"  p50 / p99 latency : {metrics.latency.p50_s * 1e9:8.1f} / "
          f"{metrics.latency.p99_s * 1e9:8.1f} ns")
    print(f"  offered/delivered : {metrics.offered_throughput_bits_per_s / 1e9:8.1f} / "
          f"{metrics.delivered_throughput_bits_per_s / 1e9:8.1f} Gb/s")
    print(f"  peak channel util : {metrics.peak_channel_utilization:8.3f}")
    print(f"  energy per bit    : {metrics.energy_per_delivered_bit_j * 1e12:8.3f} pJ")
    print(f"  events processed  : {result.events_processed}")
    print()


def full_sweep() -> None:
    """The registered ``network`` experiment: pattern x load x policy grid."""
    text, _ = run_experiment(
        "network",
        options={
            "loads": [0.1, 0.3, 0.5, 0.7, 0.9],
            "num_requests": 800,
        },
    )
    print(text)


def main() -> int:
    single_point_anatomy()
    full_sweep()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
