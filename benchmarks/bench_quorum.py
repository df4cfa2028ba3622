"""Quorum benchmark: SC-ABD ``acc`` vs availability against the stars.

Not a paper artifact — the paper's eight protocols all serialize through
the sequencer — but the study the quorum family
(:mod:`repro.protocols.sc_abd`) exists to answer: what does sequencer-free
availability cost?  Two parts:

* **acc under the ``bench_partitions`` fault grid** — the client 2 <->
  sequencer cut, swept over partition duration x detector probe interval,
  now including ``sc_abd``.  The cut is *free* for the quorum family
  (node 5 is outside every read/write quorum of the active clients):
  ``acc`` stays flat, the ``quorum`` re-selection share stays zero, and
  no detector traffic is spent, while every star pays detector overhead
  that grows with probe cadence.  The flat line costs ~3x the star
  ``acc`` fault-free — that multiple *is* the price of availability.

* **availability under a minority partition** — {4, 5} (including the
  sequencer) severed from the majority {1, 2, 3}.  Availability is the
  fraction of operations issued during the partition that also complete
  during it.  SC-ABD serves *every* majority-side operation (the
  stranded node 4 correctly waits for the heal: no majority, no
  service), while the stars serve only local cache hits because every
  miss stalls behind the unreachable sequencer.

Expectations encoded as assertions: zero consistency violations and zero
incomplete operations in every cell, quorum acc flat and re-selection
free across the sequencer-cut grid, majority-side availability exactly
1.0 for SC-ABD and far below it for every star protocol.
"""

import json
import math
import os

from repro.core.closed_forms import acc_sc_abd_rd
from repro.core.parameters import WorkloadParams
from repro.exp import SweepCell, SweepSpec, run_sweep
from repro.sim import DSMSystem, PartitionPlan, RunConfig
from repro.sim.partition import cut, isolate
from repro.workloads import read_disturbance_workload

from .conftest import emit

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)
SEQUENCER = PARAMS.N + 1
STARS = ("write_through", "berkeley", "dragon")
PROTOCOLS = STARS + ("sc_abd",)
WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "2"))
#: operations per sweep cell; the CI smoke run shrinks this via env
OPS = int(os.environ.get("REPRO_QUORUM_OPS", "2000"))

# --- part 1: the bench_partitions fault grid, plus sc_abd -----------------
CUT_START = 2000.0
DURATIONS = (0.0, 1500.0, 4000.0)
INTERVALS = (20.0, 60.0)

# --- part 2: minority partition stranding the sequencer -------------------
AVAIL_START, AVAIL_HEAL = 2000.0, 6000.0
#: ops issued closer than this to the heal are not scored (they could
#: not finish in time even on a fault-free fabric)
AVAIL_MARGIN = 200.0
MAJORITY = (1, 2, 3)


def build_spec() -> SweepSpec:
    cells = []
    for protocol in PROTOCOLS:
        for duration in DURATIONS:
            for interval in INTERVALS:
                if duration > 0:
                    plan = PartitionPlan(
                        seed=11,
                        links=cut(2, SEQUENCER, CUT_START,
                                  CUT_START + duration),
                        heartbeat_interval=interval,
                        suspect_after=3,
                    )
                else:
                    plan = None
                cells.append(SweepCell(
                    protocol=protocol, params=PARAMS, kind="sim", M=2,
                    config=RunConfig(ops=OPS, warmup=OPS // 8, seed=21,
                                     partitions=plan, monitor=True),
                ))
    return SweepSpec.explicit(cells)


def run_grid(out_path=None):
    result = run_sweep(build_spec(), workers=WORKERS, out_path=out_path)
    assert result.failed == 0, [r for r in result.rows
                                if r["status"] == "failed"]
    table = {}
    it = iter(result.rows)
    for protocol in PROTOCOLS:
        for duration in DURATIONS:
            for interval in INTERVALS:
                table[(protocol, duration, interval)] = next(it)
    return table


def test_acc_under_sequencer_cut(benchmark, results_dir):
    out_path = results_dir / "quorum_acc.jsonl"
    table = benchmark.pedantic(run_grid, args=(out_path,),
                               rounds=1, iterations=1)
    columns = [(d, i) for d in DURATIONS for i in INTERVALS]
    lines = [
        "acc under the client<->sequencer cut, quorum family included "
        "(duration x heartbeat interval; monitor on)",
        f"{'protocol':16} " + " ".join(
            f"{f'{d:g}/{i:g}':>12}" for d, i in columns
        ),
    ]
    for protocol in PROTOCOLS:
        lines.append(
            f"{protocol:16} " + " ".join(
                f"{table[(protocol, d, i)]['acc_sim']:12.2f}"
                for d, i in columns
            )
        )
    emit(results_dir, "quorum_acc_vs_duration.txt", "\n".join(lines))

    for (protocol, duration, interval), cell in table.items():
        key = (protocol, duration, interval)
        assert math.isfinite(cell["acc_sim"]), key
        assert cell["violations"] == 0, (key, cell)
        assert cell["incomplete_ops"] == 0, (key, cell)
        if protocol == "sc_abd":
            # node 5 is outside the active clients' quorums: the cut
            # triggers no re-selection and no detector machinery runs.
            assert cell.get("acc_quorum_share", 0.0) == 0.0, key
            assert cell.get("acc_detector_share", 0.0) == 0.0, key
            assert cell.get("heartbeats", 0) == 0, key
        elif duration > 0:
            assert cell["acc_detector_share"] > 0.0, key
            assert cell["heartbeats"] > 0, key

    # fault-free quorum acc matches the closed form
    analytic = acc_sc_abd_rd(PARAMS.p, PARAMS.sigma, PARAMS.a,
                             PARAMS.S, PARAMS.P, PARAMS.N)
    fault_free = table[("sc_abd", 0.0, INTERVALS[0])]["acc_sim"]
    assert abs(fault_free - analytic) / analytic < 0.04, (
        fault_free, analytic)

    # ... and stays flat across every partitioned cell: the reliability
    # layer's ack overhead is the only delta, re-selection never fires.
    partitioned = [table[("sc_abd", d, i)]["acc_sim"]
                   for d in DURATIONS[1:] for i in INTERVALS]
    assert max(partitioned) - min(partitioned) < 0.02 * analytic, partitioned


def _minority_plan() -> PartitionPlan:
    links = (isolate(4, list(MAJORITY), AVAIL_START, AVAIL_HEAL)
             + isolate(SEQUENCER, list(MAJORITY), AVAIL_START, AVAIL_HEAL))
    return PartitionPlan(seed=11, links=links, heartbeat_interval=20.0,
                         suspect_after=3)


def measure_availability(protocol):
    """Run the workload across the minority partition and score the
    fraction of in-window operations served before the heal."""
    config = RunConfig(ops=max(400, OPS // 2), warmup=0, seed=7,
                       partitions=_minority_plan(), monitor=True)
    system = DSMSystem(protocol, N=PARAMS.N, M=2, config=config)
    result = system.run_workload(read_disturbance_workload(PARAMS, M=2))
    assert result.incomplete_ops == 0, (protocol, result.incomplete_ops)
    assert not result.violations, (protocol, result.violations)

    window = [r for r in system.metrics.records()
              if AVAIL_START <= r.issue_time <= AVAIL_HEAL - AVAIL_MARGIN]
    assert window, protocol
    majority = [r for r in window if r.node in MAJORITY]
    served = [r for r in window if r.complete_time < AVAIL_HEAL]
    served_majority = [r for r in majority if r.complete_time < AVAIL_HEAL]
    return {
        "protocol": protocol,
        "acc": system.metrics.average_cost(),
        "window_ops": len(window),
        "served": len(served),
        "availability": len(served) / len(window),
        "majority_ops": len(majority),
        "majority_served": len(served_majority),
        "majority_availability": len(served_majority) / len(majority),
        "violations": len(result.violations),
    }


def run_availability():
    return [measure_availability(protocol) for protocol in PROTOCOLS]


def test_availability_under_minority_partition(benchmark, results_dir):
    rows = benchmark.pedantic(run_availability, rounds=1, iterations=1)
    emit(results_dir, "quorum_availability.jsonl",
         "\n".join(json.dumps(row) for row in rows))
    lines = [
        "operations served during the minority partition "
        f"({{4, {SEQUENCER}}} severed from {{1, 2, 3}} for "
        f"{AVAIL_HEAL - AVAIL_START:g} time units; monitor on)",
        f"{'protocol':16} {'acc':>10} {'avail':>8} {'majority-avail':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row['protocol']:16} {row['acc']:10.2f} "
            f"{row['availability']:8.3f} "
            f"{row['majority_availability']:15.3f}"
        )
    emit(results_dir, "quorum_availability.txt", "\n".join(lines))

    by_protocol = {row["protocol"]: row for row in rows}
    quorum = by_protocol["sc_abd"]
    # every majority-side operation is served during the partition; the
    # only waiting client is the one stranded with the sequencer.
    assert quorum["majority_availability"] == 1.0, quorum
    assert quorum["violations"] == 0
    for star in STARS:
        row = by_protocol[star]
        # a star protocol serves only local hits while the sequencer is
        # unreachable — every miss waits for the heal.
        assert row["majority_availability"] < 0.5, row
        assert quorum["availability"] > row["availability"], (quorum, row)
