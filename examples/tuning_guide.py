#!/usr/bin/env python3
"""Tuning guide: using the model to make a workload cheaper.

The paper's introduction motivates the whole methodology with "fine tuning
of the computation behavior".  This capstone example runs the full tuning
loop on one concrete workload:

1. rank the protocols (pick the right one first);
2. evaluate the two structural moves the model exposes — relocating the
   activity center to the object's home node, and switching broadcast
   invalidation to directory multicast;
3. verify the winning configuration on the simulator.

Run:  python examples/tuning_guide.py
"""

from repro import (
    Deviation, DSMSystem, RunConfig, WorkloadParams, rank_protocols,
)
from repro.core import analytical_acc, placement_advantage
from repro.workloads import read_disturbance_workload

# The workload to tune: a mid-size system with a hot writer, a few
# readers, and expensive whole-copy transfers.
PARAMS = WorkloadParams(N=24, p=0.35, a=5, sigma=0.08, S=800.0, P=25.0)


def step1_pick_protocol() -> str:
    print("Step 1 — protocol ranking for the workload:")
    ranking = rank_protocols(PARAMS, Deviation.READ)
    for name, acc in ranking[:4]:
        print(f"   {name:18s} acc = {acc:9.2f}")
    best = ranking[0][0]
    worst = ranking[-1]
    print(f"   ... worst: {worst[0]} at {worst[1]:.2f} "
          f"({worst[1] / ranking[0][1]:.1f}x the best)\n")
    return best


def step2_structural_moves(protocol: str) -> None:
    print("Step 2 — structural moves:")
    client, home, saving = placement_advantage(protocol, PARAMS,
                                               Deviation.READ)
    print(f"   move the activity center to the home node: "
          f"{client:.2f} -> {home:.2f} (saves {saving:.2f})")
    if protocol == "write_through":
        directory = analytical_acc("write_through_dir", PARAMS,
                                   Deviation.READ)
        print(f"   switch to directory invalidation:          "
              f"{client:.2f} -> {directory:.2f} "
              f"(saves {client - directory:.2f})")
    halved = PARAMS.with_(p=PARAMS.p / 2)
    print(f"   halve the write share (batch the writes):  "
          f"{client:.2f} -> "
          f"{analytical_acc(protocol, halved, Deviation.READ):.2f}\n")


def step3_verify(protocol: str) -> None:
    print(f"Step 3 — simulator verification of {protocol}:")
    predicted = analytical_acc(protocol, PARAMS, Deviation.READ)
    system = DSMSystem(protocol, N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P)
    result = system.run_workload(
        read_disturbance_workload(PARAMS, M=2),
        RunConfig(ops=6000, warmup=1000, seed=17),
    )
    system.check_coherence()
    print(f"   predicted {predicted:.2f}, measured {result.acc:.2f} "
          f"({100 * abs(result.acc - predicted) / predicted:.1f}% off)")


def main() -> None:
    best = step1_pick_protocol()
    step2_structural_moves(best)
    step3_verify(best)


if __name__ == "__main__":
    main()
