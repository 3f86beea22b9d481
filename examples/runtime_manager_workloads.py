"""Runtime manager on mixed real-time / multimedia workloads.

The paper argues that the ECC/laser configuration should be picked at run
time by an Operating-System-level manager: real-time transfers need the
shortest communication time, while multimedia-like transfers can accept a
longer (coded) transmission — or even a degraded BER — in exchange for much
lower power.  This example builds both workloads, serves them through the
network simulator (:class:`~repro.netsim.NetworkSimulator`, whose
:class:`~repro.manager.manager.OpticalLinkManager` configures every
transfer) under different policies, and compares energy and deadline
behaviour.  A transfer misses its deadline when it is rejected or when its
arrival-to-delivery latency exceeds the request's relative deadline.

Run with::

    python examples/runtime_manager_workloads.py
"""

from __future__ import annotations

import numpy as np

from repro import DEFAULT_CONFIG, NetworkSimulator
from repro.manager import DeadlineConstrainedPolicy, MinimumEnergyPolicy, MinimumPowerPolicy
from repro.traffic import BurstyTrafficGenerator, PeriodicTask, TaskSet, TrafficRequest


def realtime_workload() -> list[TrafficRequest]:
    """A periodic control/task workload with tight deadlines and strict BER."""
    tasks = TaskSet(
        tasks=[
            PeriodicTask(
                name="sensor-fusion",
                source=1,
                destination=0,
                period_s=50e-6,
                payload_bits=4096,
                relative_deadline_s=5e-6,
                target_ber=1e-11,
            ),
            PeriodicTask(
                name="actuator-loop",
                source=2,
                destination=0,
                period_s=100e-6,
                payload_bits=2048,
                relative_deadline_s=4e-6,
                target_ber=1e-11,
            ),
        ]
    )
    return tasks.requests_until(1e-3)


def multimedia_workload() -> list[TrafficRequest]:
    """Bursty frame traffic with relaxed BER and soft (frame-rate) deadlines."""
    generator = BurstyTrafficGenerator(
        DEFAULT_CONFIG.num_onis,
        target_ber=1e-6,
        rng=np.random.default_rng(42),
    )
    return list(generator.generate(200))


def evaluate(policy_name: str, policy, workload: list[TrafficRequest]) -> dict[str, float]:
    """Serve one workload with one policy and summarise the outcomes."""
    records = NetworkSimulator(policy=policy, seed=0).run(workload).records
    # Records come back in completion order; a request is identified by its
    # endpoints and arrival time.
    deadlines = {
        (request.source, request.destination, request.arrival_time_s): request.deadline_s
        for request in workload
    }
    selected: dict[str, int] = {}
    missed = 0
    for record in records:
        if record.code_name is not None:
            selected[record.code_name] = selected.get(record.code_name, 0) + 1
        deadline_s = deadlines[(record.source, record.destination, record.arrival_time_s)]
        if record.rejected or (deadline_s is not None and record.latency_s > deadline_s):
            missed += 1
    return {
        "policy": policy_name,
        "transfers": len(records),
        "total_energy_uj": sum(record.energy_j for record in records) * 1e6,
        "deadline_miss_rate": missed / len(records) if records else 0.0,
        "selections": selected,
    }


def main() -> None:
    """Compare manager policies on the two workload classes."""
    policies = [
        ("min-power", MinimumPowerPolicy()),
        ("min-energy", MinimumEnergyPolicy()),
        ("deadline (CT <= 1.2)", DeadlineConstrainedPolicy(max_communication_time=1.2)),
    ]
    for workload_name, workload_factory in (
        ("real-time task set", realtime_workload),
        ("multimedia frames", multimedia_workload),
    ):
        print(f"\n=== {workload_name} ===")
        workload = workload_factory()
        for policy_name, policy in policies:
            summary = evaluate(policy_name, policy, workload)
            picks = ", ".join(f"{name}: {count}" for name, count in summary["selections"].items())
            print(
                f"{policy_name:<22} transfers={summary['transfers']:4d} "
                f"energy={summary['total_energy_uj']:9.2f} uJ "
                f"deadline misses={summary['deadline_miss_rate'] * 100:5.1f}%  [{picks}]"
            )
    print(
        "\nThe deadline-constrained policy keeps the fast (uncoded or lightly coded)\n"
        "paths for the real-time set, while the power/energy policies steer the\n"
        "multimedia traffic onto the coded, low-laser-power configurations."
    )


if __name__ == "__main__":
    main()
