"""SC-ABD availability under minority partitions (the quorum headline).

Every star protocol serializes through the sequencer (node ``N + 1``), so
a partition that strands the sequencer in a minority makes every
cache-miss operation wait for the heal.  SC-ABD needs only *any*
majority of reachable replicas: the same partition leaves it fully
available, with zero consistency violations — and when the partition
cuts into the core quorum, re-selection routes around it, visibly
charged to the ``quorum`` cost share.
"""

from repro.core import WorkloadParams
from repro.sim import DSMSystem, RunConfig
from repro.sim.partition import PartitionPlan, isolate
from repro.workloads import read_disturbance_workload

HEAL = 4000.0


def _minority_plan():
    """Sever {4, 5} — including the star sequencer, node 5 — from the
    majority {1, 2, 3} until ``HEAL``."""
    links = (isolate(4, [1, 2, 3], 0.0, HEAL)
             + isolate(5, [1, 2, 3], 0.0, HEAL))
    return PartitionPlan(links=links)


class TestMinorityPartitionAvailability:
    def test_sc_abd_serves_reads_and_writes_during_partition(self):
        system = DSMSystem("sc_abd", N=4, config=RunConfig(
            monitor=True, partitions=_minority_plan()))
        chained = {}
        write = system.submit(
            1, "write", params=7,
            callback=lambda _op: chained.setdefault(
                "read", system.submit(2, "read")),
        )
        system.settle()
        read = chained["read"]
        w_rec = system.metrics.op(write.op_id)
        r_rec = system.metrics.op(read.op_id)
        # both operations completed *during* the partition: the core
        # quorum {1, 2, 3} is exactly the reachable majority.
        assert w_rec.completed and w_rec.complete_time < HEAL
        assert r_rec.completed and r_rec.complete_time < HEAL
        assert read.result == 7
        assert system.consistency_report() == []

    def test_partitioned_core_member_is_routed_around(self):
        """When the partition cuts *into* the core quorum, re-selection
        completes the operation against a fresh majority during the
        partition, charged to the quorum cost share."""
        plan = PartitionPlan(links=isolate(3, [1, 2, 4, 5], 0.0, HEAL))
        system = DSMSystem("sc_abd", N=4, config=RunConfig(
            monitor=True, partitions=plan))
        write = system.submit(1, "write", params=9)
        system.settle()
        rec = system.metrics.op(write.op_id)
        assert rec.completed and rec.complete_time < HEAL
        assert rec.quorum_cost > 0.0
        assert system.authoritative_value(1) == 9
        assert system.consistency_report() == []

    def test_write_through_read_waits_for_the_heal(self):
        """The star baseline: a cache-miss read must reach the sequencer
        stranded in the minority, so it cannot complete before the heal."""
        system = DSMSystem("write_through", N=4, config=RunConfig(
            partitions=_minority_plan()))
        read = system.submit(1, "read")
        system.settle()
        rec = system.metrics.op(read.op_id)
        assert (not rec.completed) or rec.complete_time >= HEAL

    def test_sc_abd_workload_fully_available_with_zero_violations(self):
        """A stochastic workload spanning the partition: every operation
        completes (nothing stalls, nothing is lost) and the monitor
        finds no sequential-consistency violation."""
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1,
                                S=100.0, P=30.0)
        config = RunConfig(ops=400, warmup=0, seed=3,
                           partitions=_minority_plan(), monitor=True)
        system = DSMSystem("sc_abd", N=4, M=2, config=config)
        result = system.run_workload(read_disturbance_workload(params, M=2))
        assert result.measured == 400
        assert result.incomplete_ops == 0
        assert not result.violations
        assert system.metrics.reliability.delivery_failures == 0
